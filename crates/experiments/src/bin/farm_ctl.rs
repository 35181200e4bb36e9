//! Operate on a `ptb-farm` result store without re-running a figure.
//!
//! ```text
//! farm_ctl status            # entries, store bytes, shard fanout,
//!                            # journal hit/miss traffic, pending +
//!                            # quarantined jobs
//! farm_ctl status --json     # the same as one machine-readable JSON
//!                            # object (for the serve smoke job and
//!                            # loadgen assertions)
//! farm_ctl resume            # run the journal's unfinished jobs, then
//!                            # retry the quarantine manifest
//! farm_ctl verify            # integrity-scan every entry, drop bad ones
//! farm_ctl gc                # verify + compact the journal
//! farm_ctl digests           # one `key digest` line per entry, sorted
//!                            # by key (the FNV-128 of the report JSON,
//!                            # as tests/report_digests.rs computes it)
//! farm_ctl workers           # fleet view of a running ptb-serve
//!                            # (--addr HOST:PORT, default
//!                            # 127.0.0.1:7878): live workers and
//!                            # outstanding leases
//! ```
//!
//! All subcommands honour `PTB_FARM_DIR` and the shared `--farm-dir
//! PATH` flag; `resume` uses `PTB_JOBS` worker threads and honours
//! `--job-timeout`. Jobs that fail again during a resume stay in (or
//! are added to) `failed.jsonl`; jobs that now succeed are removed from
//! it. Farm outcome counters are printed in the `farm.*` namespace via
//! `ptb-obs` (plus `farm.chaos.*` under fault injection).

use ptb_experiments::Runner;
use ptb_farm::hash::digest_hex;
use ptb_farm::ExecConfig;
use serde::{json, Map, Serialize, Value};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    // `workers` talks to a running ptb-serve over HTTP and needs no
    // farm store of its own — handle it before the farm-open gate.
    if args.get(1).map(String::as_str) == Some("workers") {
        workers_cmd(&args);
        return;
    }
    let runner = Runner::from_env_args(&mut args);
    let Some(farm) = &runner.farm else {
        eprintln!("error: no farm available (PTB_NO_CACHE set, or store unopenable)");
        std::process::exit(2);
    };
    let cmd = args.get(1).map(String::as_str).unwrap_or("status");
    match cmd {
        "status" if args.iter().any(|a| a == "--json") => {
            print_status_json(farm);
        }
        "status" => {
            let disk = farm.store().disk_stats().unwrap_or_default();
            let pending = farm.pending().unwrap_or_default();
            let quarantined = farm.quarantine().load().unwrap_or_default();
            println!("farm store: {}", farm.dir().display());
            println!("  entries:     {}", disk.entries);
            println!(
                "  total bytes: {} ({:.2} MiB)",
                disk.total_bytes,
                disk.total_bytes as f64 / (1024.0 * 1024.0)
            );
            println!("  shards:      {}", disk.shards);
            match farm.journal_stats() {
                Ok(t) if !t.is_empty() => {
                    println!(
                        "  journal traffic: {} hits, {} misses, {} deduped, {} completed ({:.0}% hit rate; reset by gc)",
                        t.hits,
                        t.misses,
                        t.deduped,
                        t.completed,
                        if t.hits + t.misses > 0 {
                            100.0 * t.hits as f64 / (t.hits + t.misses) as f64
                        } else {
                            0.0
                        }
                    );
                }
                Ok(_) => println!("  journal traffic: none recorded"),
                Err(e) => eprintln!("warning: cannot read journal stats: {e}"),
            }
            println!("  pending:     {}", pending.len());
            for (key, job) in &pending {
                println!("    {} {}", &key[..12.min(key.len())], job.label());
            }
            println!("  quarantined: {}", quarantined.len());
            for e in &quarantined {
                println!(
                    "    {} {} [{}] {}",
                    &e.key[..12.min(e.key.len())],
                    e.label,
                    e.kind,
                    e.error
                );
            }
        }
        "resume" => {
            let exec = ExecConfig {
                watchdog: runner.job_timeout,
                ..ExecConfig::new(runner.jobs)
            };
            let pending = farm.pending().unwrap_or_default();
            let mut failed = 0usize;
            if pending.is_empty() {
                println!("no pending journal jobs");
            } else {
                println!("resuming {} unfinished jobs…", pending.len());
                match farm.try_resume(&exec) {
                    Ok(done) => {
                        for (key, outcome) in &done {
                            let short = &key[..12.min(key.len())];
                            match outcome {
                                Ok(report) => println!(
                                    "  {short} {}/{}c: {} cycles",
                                    report.benchmark, report.n_cores, report.cycles
                                ),
                                Err(e) => {
                                    println!("  {short} FAILED: {e}");
                                    failed += 1;
                                }
                            }
                        }
                        // Quarantine what failed so it is replayable.
                        for ((_, job), outcome) in pending.iter().zip(&done) {
                            if let Err(e) = &outcome.1 {
                                if let Err(qe) = farm.quarantine_job(job, e) {
                                    eprintln!("warning: cannot quarantine: {qe}");
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("error: resume failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            // Second leg: retry the quarantine manifest. Recovered jobs
            // drop out of failed.jsonl; persistent ones stay.
            match farm.retry_quarantined(&exec) {
                Ok((0, 0)) => println!("quarantine empty"),
                Ok((recovered, still)) => {
                    println!("quarantine: {recovered} recovered, {still} still failing");
                    failed += still;
                }
                Err(e) => {
                    eprintln!("error: quarantine retry failed: {e}");
                    std::process::exit(1);
                }
            }
            print_counters(farm);
            if failed > 0 {
                std::process::exit(1);
            }
        }
        "verify" | "gc" => {
            match farm.verify() {
                Ok((ok, dropped)) => {
                    println!("verified {ok} entries, dropped {dropped}");
                }
                Err(e) => {
                    eprintln!("error: verify failed: {e}");
                    std::process::exit(1);
                }
            }
            if cmd == "gc" {
                // Reopening compacts the journal when nothing is pending.
                let pending = farm.pending().unwrap_or_default();
                if pending.is_empty() {
                    if let Err(e) = ptb_farm::Journal::truncate(farm.dir().join("journal.jsonl")) {
                        eprintln!("warning: cannot compact journal: {e}");
                    } else {
                        println!("journal compacted");
                    }
                } else {
                    println!("journal kept: {} jobs still pending", pending.len());
                }
            }
            print_counters(farm);
        }
        "digests" => {
            // One `key digest` line per entry, sorted by key, for a diff
            // against tests/goldens/sweep_digests.txt.
            let keys = farm.store().keys().unwrap_or_else(|e| {
                eprintln!("error: cannot list the store: {e}");
                std::process::exit(1);
            });
            for key in keys {
                match farm.store().read_entry(&key) {
                    Ok(Some((_, report))) => {
                        let digest = digest_hex(json::to_string(&report.to_value()).as_bytes());
                        println!("{key} {digest}");
                    }
                    // Removed between the listing and the read.
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!("error: entry {key}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }
        other => {
            eprintln!(
                "error: unknown subcommand {other:?} (status|resume|verify|gc|digests|workers)"
            );
            std::process::exit(2);
        }
    }
}

/// `workers`: GET `/v1/workers` from a running `ptb-serve` and print
/// the fleet — live workers and outstanding leases. `--json` passes
/// the server's object through verbatim.
fn workers_cmd(args: &[String]) {
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let sock: std::net::SocketAddr = match addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: bad --addr {addr:?}: {e}");
            std::process::exit(2);
        }
    };
    let (status, body) = match ptb_serve::http_call(sock, "GET", "/v1/workers", None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: cannot reach ptb-serve at {addr}: {e}");
            std::process::exit(1);
        }
    };
    if status != 200 {
        eprintln!("error: GET /v1/workers: HTTP {status}: {body}");
        std::process::exit(1);
    }
    if args.iter().any(|a| a == "--json") {
        println!("{body}");
        return;
    }
    let v = match json::parse(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: bad /v1/workers JSON: {e}");
            std::process::exit(1);
        }
    };
    let arr = |key: &str| -> Vec<Value> {
        v.as_object()
            .and_then(|o| o.get(key))
            .and_then(|x| match x {
                Value::Array(a) => Some(a.clone()),
                _ => None,
            })
            .unwrap_or_default()
    };
    let field = |item: &Value, key: &str| -> String {
        item.as_object()
            .and_then(|o| o.get(key))
            .map(|x| match x {
                Value::Str(s) => s.clone(),
                other => json::to_string(other),
            })
            .unwrap_or_else(|| "-".into())
    };
    let remote_active = v
        .as_object()
        .and_then(|o| o.get("remote_active"))
        .and_then(Value::as_bool)
        .unwrap_or(false);
    let workers = arr("workers");
    println!(
        "fleet at {addr}: {} workers ({})",
        workers.len(),
        if remote_active {
            "remote execution active"
        } else {
            "local-only"
        }
    );
    for w in &workers {
        println!(
            "  {} live={} last_seen={}ms claimed={} completed={} failed={}",
            field(w, "name"),
            field(w, "live"),
            field(w, "last_seen_ms"),
            field(w, "claimed"),
            field(w, "completed"),
            field(w, "failed")
        );
    }
    let leases = arr("leases");
    println!("leases: {}", leases.len());
    for l in &leases {
        println!(
            "  {} -> {} expires_in={}ms heartbeats={}",
            {
                let k = field(l, "key");
                k[..12.min(k.len())].to_string()
            },
            field(l, "worker"),
            field(l, "expires_in_ms"),
            field(l, "heartbeats")
        );
    }
}

/// `status --json`: one JSON object on stdout, nothing else — consumed
/// by the CI serve-smoke job and by loadgen's zero-loss assertions.
fn print_status_json(farm: &ptb_farm::Farm) {
    let disk = farm.store().disk_stats().unwrap_or_default();
    let pending = farm.pending().unwrap_or_default();
    let quarantined = farm.quarantine().load().unwrap_or_default();
    let traffic = farm.journal_stats().unwrap_or_default();
    let mut obj = Map::new();
    obj.insert("dir".into(), Value::Str(farm.dir().display().to_string()));
    obj.insert("entries".into(), Value::U64(disk.entries));
    obj.insert("total_bytes".into(), Value::U64(disk.total_bytes));
    obj.insert("shards".into(), Value::U64(disk.shards));
    let mut journal = Map::new();
    journal.insert("hits".into(), Value::U64(traffic.hits));
    journal.insert("misses".into(), Value::U64(traffic.misses));
    journal.insert("deduped".into(), Value::U64(traffic.deduped));
    journal.insert("completed".into(), Value::U64(traffic.completed));
    obj.insert("journal".into(), Value::Object(journal));
    obj.insert("pending".into(), Value::U64(pending.len() as u64));
    obj.insert("quarantined".into(), Value::U64(quarantined.len() as u64));
    println!("{}", json::to_string(&Value::Object(obj)));
}

fn print_counters(farm: &ptb_farm::Farm) {
    let mut registry = ptb_obs::CounterRegistry::new();
    registry.merge(&farm.counters());
    print!("{}", registry.to_table("farm counters").to_text());
}
