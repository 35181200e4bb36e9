//! Farm-layer probes of the traced run: the work-stealing executor and
//! the result store, called directly on a workload's own jobs.

use crate::metrics::{Layers, Tally};
use crate::spans::Tracer;
use ptb_core::RunReport;
use ptb_farm::{ExecConfig, Farm, FarmJob, StoreLookup};
use serde::{json, Serialize};
use std::path::Path;
use std::time::Instant;

/// Executor threads of the probe (the machine's two cores).
const EXEC_WORKERS: usize = 2;

/// Minimum timed calls per store operation.
const STORE_CALLS: usize = 200;

/// One stored job with the exact report body `ptb-serve` answers for it.
#[derive(Debug, Clone)]
pub struct Stored {
    /// Content key.
    pub key: String,
    /// The job.
    pub job: FarmJob,
    /// Its report.
    pub report: RunReport,
    /// `json::to_string(&report.to_value())`.
    pub body: String,
}

impl Stored {
    /// Entry for `job` with result `report`.
    pub fn new(key: String, job: FarmJob, report: RunReport) -> Self {
        let body = json::to_string(&report.to_value());
        Stored {
            key,
            job,
            report,
            body,
        }
    }
}

fn micros(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Run `jobs` on a fresh farm at `dir` through
/// `Farm::try_run_batch(.., ExecConfig::new(2))` and read the
/// executor's own telemetry. Returns the stored results.
pub fn exec(
    dir: &Path,
    jobs: &[FarmJob],
    tally: &mut Tally,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<Vec<Stored>, String> {
    let farm = Farm::open(dir).map_err(|e| format!("open probe farm: {e}"))?;
    tr.begin("farm.try_run_batch");
    let outcomes = farm.try_run_batch(jobs, &ExecConfig::new(EXEC_WORKERS));
    tr.end();
    l.exec_utilization = farm.exec_stats().utilization();
    l.exec_steals = farm.exec_stats().steals() as f64;
    let mut stored = Vec::new();
    for (job, outcome) in jobs.iter().zip(outcomes) {
        match outcome {
            Ok(report) => {
                tally.ok(1);
                stored.push(Stored::new(job.key(), job.clone(), report));
            }
            Err(e) => tally.fail(1, format!("{}: {e}", job.label())),
        }
    }
    Ok(stored)
}

/// Time `Farm::open` of the farm at `dir`, then `FarmJob::key`,
/// `ResultStore::get`, `read_entry` and `put` over `sample` (cycled to
/// at least 200 calls each), checking every answer against the stored
/// body.
pub fn store(
    dir: &Path,
    sample: &[Stored],
    tally: &mut Tally,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<(), String> {
    tr.begin("farm.open");
    let t0 = Instant::now();
    let farm = Farm::open(dir).map_err(|e| format!("reopen farm: {e}"));
    l.open_ms = t0.elapsed().as_secs_f64() * 1e3;
    tr.end();
    let farm = farm?;
    let store = farm.store();
    let reps = STORE_CALLS.div_ceil(sample.len().max(1));
    for _ in 0..reps {
        for s in sample {
            tr.begin("farm.key");
            let t0 = Instant::now();
            let key = s.job.key();
            l.key_us.push(micros(t0));
            tr.end();

            tr.begin("farm.store_get");
            let t0 = Instant::now();
            let got = store.get(&s.key, &s.job);
            l.store_get_us.push(micros(t0));
            tr.end();

            tr.begin("farm.read_entry");
            let t0 = Instant::now();
            let entry = store.read_entry(&s.key);
            l.read_entry_us.push(micros(t0));
            tr.end();

            tr.begin("farm.store_put");
            let t0 = Instant::now();
            let put = store.put(&s.key, &s.job, &s.report);
            l.store_put_us.push(micros(t0));
            tr.end();

            let same = |r: &RunReport| json::to_string(&r.to_value()) == s.body;
            tally.check(
                1,
                (key == s.key)
                    .then_some(())
                    .ok_or_else(|| format!("key of {} changed", s.job.label())),
            );
            tally.check(
                1,
                match got {
                    StoreLookup::Hit(r) if same(&r) => Ok(()),
                    StoreLookup::Hit(_) => Err(format!("get {}: wrong report", s.key)),
                    StoreLookup::Miss => Err(format!("get {}: miss", s.key)),
                    StoreLookup::Corrupt(e) => Err(format!("get {}: {e}", s.key)),
                },
            );
            tally.check(
                1,
                match entry {
                    Ok(Some((_, r))) if same(&r) => Ok(()),
                    Ok(_) => Err(format!("read_entry {}: missing or wrong", s.key)),
                    Err(e) => Err(format!("read_entry {}: {e}", s.key)),
                },
            );
            tally.check(1, put.map_err(|e| format!("put {}: {e}", s.key)));
        }
    }
    let disk = store.disk_stats().map_err(|e| format!("disk stats: {e}"))?;
    l.entry_bytes = disk.total_bytes as f64 / disk.entries.max(1) as f64;
    Ok(())
}
