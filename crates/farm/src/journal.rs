//! Append-only job journal for crash-safe resumption.
//!
//! One JSON object per line (`journal.jsonl`):
//!
//! * `{"submit":"<key>","job":{…}}` — the job was scheduled;
//! * `{"done":"<key>"}` — its result landed in the store;
//! * `{"stats":{…}}` — batch outcome counters ([`JournalStats`]),
//!   ignored by pending-set recovery (and by loaders predating it,
//!   which skip objects without a `submit`/`done` key).
//!
//! The pending set is recovered by replaying the lines in order: a
//! submit opens a job, a done closes it, and a re-submit after a done
//! re-opens it (the key was rescheduled). Lines are
//! written with a single `write` call each, so concurrent appends from
//! worker threads (behind a mutex) and sequential figure binaries
//! interleave at line granularity; a line truncated by a crash is
//! skipped by the loader rather than aborting recovery.
//!
//! Appends flow through a [`FarmIo`] handle so the chaos suite can tear
//! lines and drop flushes; recovery must stay *idempotent* under torn
//! tails — replaying the same journal twice yields the same pending
//! set, and a torn record degrades to re-running its job, never to a
//! wrong result.

use crate::error::FarmError;
use crate::io::{FarmIo, RealIo};
use crate::sync::lock;
use crate::FarmJob;
use serde::{json, Deserialize, Map, Serialize, Value};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Batch outcome counters journalled as `{"stats":{…}}` lines so
/// `farm_ctl status` can report hit/miss traffic across processes.
///
/// The journal is compacted whenever a farm opens with nothing pending,
/// but [`Farm::open`](crate::Farm::open) carries the summed stats across
/// that truncation as a single aggregate line — so sums derived from
/// these records cover the farm's whole lifetime. `farm_ctl gc`
/// truncates without carrying and resets the ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalStats {
    /// Jobs served from the store.
    pub hits: u64,
    /// Jobs that had to simulate.
    pub misses: u64,
    /// Duplicate submissions collapsed.
    pub deduped: u64,
    /// Jobs simulated and persisted.
    pub completed: u64,
}

impl JournalStats {
    /// Component-wise sum.
    pub fn add(&mut self, other: &JournalStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.deduped += other.deduped;
        self.completed += other.completed;
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        *self == JournalStats::default()
    }
}

/// Handle for appending to a journal file.
pub struct Journal {
    file: Mutex<std::fs::File>,
    path: PathBuf,
    io: Arc<dyn FarmIo>,
}

impl Journal {
    /// Open `path` for appending on the real filesystem.
    pub fn open(path: impl AsRef<Path>) -> Result<Journal, FarmError> {
        Self::open_with(path, Arc::new(RealIo))
    }

    /// Open `path` for appending, creating it if absent, with all
    /// filesystem operations routed through `io`.
    pub fn open_with(path: impl AsRef<Path>, io: Arc<dyn FarmIo>) -> Result<Journal, FarmError> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            io.create_dir_all(parent)
                .map_err(|e| FarmError::io("create journal dir", parent, e))?;
        }
        let file = io
            .open_append(&path)
            .map_err(|e| FarmError::io("open journal", &path, e))?;
        Ok(Journal {
            file: Mutex::new(file),
            path,
            io,
        })
    }

    /// Record that `job` (under `key`) has been scheduled.
    pub fn submit(&self, key: &str, job: &FarmJob) -> Result<(), FarmError> {
        let mut m = Map::new();
        m.insert("submit".into(), Value::Str(key.to_owned()));
        m.insert("job".into(), job.to_value());
        self.append(&Value::Object(m))
    }

    /// Record that the job under `key` has completed and been stored.
    pub fn done(&self, key: &str) -> Result<(), FarmError> {
        let mut m = Map::new();
        m.insert("done".into(), Value::Str(key.to_owned()));
        self.append(&Value::Object(m))
    }

    /// Append a batch's outcome counters as a `{"stats":{…}}` record
    /// (skipped when all-zero to keep the journal quiet).
    pub fn record_stats(&self, stats: &JournalStats) -> Result<(), FarmError> {
        if stats.is_empty() {
            return Ok(());
        }
        let mut m = Map::new();
        m.insert("stats".into(), stats.to_value());
        self.append(&Value::Object(m))
    }

    fn append(&self, v: &Value) -> Result<(), FarmError> {
        let mut line = json::to_string(v);
        line.push('\n');
        let mut file = lock(&self.file);
        self.io
            .append_line(&mut file, &line, &self.path)
            .map_err(|e| FarmError::io("append journal", &self.path, e))
    }

    /// Read the journal at `path` (real filesystem) and return the jobs
    /// submitted but not done, in submission order.
    pub fn load_pending(path: impl AsRef<Path>) -> Result<Vec<(String, FarmJob)>, FarmError> {
        Self::load_pending_with(path, &RealIo)
    }

    /// [`Journal::load_pending`] through an explicit [`FarmIo`].
    ///
    /// The journal is replayed sequentially: a `submit` opens a job, a
    /// later `done` closes it, and a submit *after* a done re-opens it
    /// (the key was rescheduled). A missing file means an empty pending
    /// set; unparsable (e.g. crash-truncated or chaos-torn) lines are
    /// skipped. Replay is idempotent: loading the same bytes twice
    /// always yields the same pending set.
    pub fn load_pending_with(
        path: impl AsRef<Path>,
        io: &dyn FarmIo,
    ) -> Result<Vec<(String, FarmJob)>, FarmError> {
        let path = path.as_ref();
        let text = match io.read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(FarmError::io("read journal", path, e)),
        };
        let mut order: Vec<String> = Vec::new();
        let mut open: HashMap<String, FarmJob> = HashMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Ok(v) = json::parse(line) else {
                continue; // truncated tail from a crash mid-write
            };
            if let Some(key) = v.get("done").and_then(Value::as_str) {
                open.remove(key);
            } else if let Some(key) = v.get("submit").and_then(Value::as_str) {
                if !open.contains_key(key) {
                    if let Some(job_v) = v.get("job") {
                        if let Ok(job) = FarmJob::from_value(job_v) {
                            order.push(key.to_owned());
                            open.insert(key.to_owned(), job);
                        }
                    }
                }
            }
        }
        // `order` can carry dead duplicates (submit → done → resubmit);
        // taking each key's job at its first live occurrence dedups.
        Ok(order
            .into_iter()
            .filter_map(|key| open.remove(&key).map(|job| (key, job)))
            .collect())
    }

    /// Sum every `{"stats":{…}}` record in the journal at `path`
    /// through an explicit [`FarmIo`]. A missing file, and lines that
    /// are not stats records, contribute nothing. Open-time compaction
    /// re-appends the running total as one aggregate line, so the sum
    /// covers the farm's lifetime (until a `gc` resets it).
    pub fn load_stats_with(
        path: impl AsRef<Path>,
        io: &dyn FarmIo,
    ) -> Result<JournalStats, FarmError> {
        let path = path.as_ref();
        let text = match io.read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(JournalStats::default()),
            Err(e) => return Err(FarmError::io("read journal", path, e)),
        };
        let mut total = JournalStats::default();
        for line in text.lines() {
            let Ok(v) = json::parse(line.trim()) else {
                continue;
            };
            if let Some(s) = v.get("stats") {
                if let Ok(s) = JournalStats::from_value(s) {
                    total.add(&s);
                }
            }
        }
        Ok(total)
    }

    /// Best-effort writability probe: re-open the journal path for
    /// appending and report whether that succeeded. Used by liveness
    /// checks (`/healthz`) — a farm whose journal can no longer be
    /// opened cannot record crash-recovery information, so a server in
    /// that state should stop accepting work.
    pub fn probe_writable(&self) -> bool {
        self.io.open_append(&self.path).is_ok()
    }

    /// Reset the journal at `path` to empty (used once recovery
    /// information is no longer live).
    pub fn truncate(path: impl AsRef<Path>) -> Result<(), FarmError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| FarmError::io("create journal dir", parent, e))?;
        }
        std::fs::write(path, b"").map_err(|e| FarmError::io("truncate journal", path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{ChaosConfig, ChaosIo};
    use ptb_core::SimConfig;
    use ptb_workloads::{Benchmark, Scale};

    fn job(bench: Benchmark) -> FarmJob {
        FarmJob::new(
            bench,
            SimConfig {
                n_cores: 2,
                scale: Scale::Test,
                ..SimConfig::default()
            },
        )
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("ptb-journal-{}-{name}", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    }

    #[test]
    fn pending_is_submits_minus_dones() {
        let path = tmp("pending");
        let j = Journal::open(&path).unwrap();
        let (a, b) = (job(Benchmark::Fft), job(Benchmark::Radix));
        j.submit(&a.key(), &a).unwrap();
        j.submit(&b.key(), &b).unwrap();
        j.done(&a.key()).unwrap();
        let pending = Journal::load_pending(&path).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, b.key());
        assert_eq!(pending[0].1.bench, Benchmark::Radix);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_skipped() {
        let path = tmp("truncated");
        let j = Journal::open(&path).unwrap();
        let a = job(Benchmark::Fft);
        j.submit(&a.key(), &a).unwrap();
        // Emulate a crash mid-append: garbage partial line at the end.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"submit\":\"deadbeef\",\"jo").unwrap();
        }
        let pending = Journal::load_pending(&path).unwrap();
        assert_eq!(pending.len(), 1, "valid entry survives, garbage skipped");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_means_empty() {
        let pending = Journal::load_pending(tmp("nonexistent-never-created")).unwrap();
        assert!(pending.is_empty());
    }

    #[test]
    fn stats_records_sum_and_do_not_disturb_pending() {
        let path = tmp("stats");
        let j = Journal::open(&path).unwrap();
        let a = job(Benchmark::Fft);
        j.submit(&a.key(), &a).unwrap();
        j.record_stats(&JournalStats {
            hits: 2,
            misses: 1,
            deduped: 0,
            completed: 1,
        })
        .unwrap();
        j.record_stats(&JournalStats {
            hits: 1,
            misses: 3,
            deduped: 2,
            completed: 3,
        })
        .unwrap();
        // All-zero records are elided entirely.
        j.record_stats(&JournalStats::default()).unwrap();

        let total = Journal::load_stats_with(&path, &RealIo).unwrap();
        assert_eq!(total.hits, 3);
        assert_eq!(total.misses, 4);
        assert_eq!(total.deduped, 2);
        assert_eq!(total.completed, 4);
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 3, "submit + two non-empty stats records");

        // A loader that predates stats records still recovers pending.
        let pending = Journal::load_pending(&path).unwrap();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, a.key());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_of_missing_file_are_zero() {
        let s = Journal::load_stats_with(tmp("stats-nonexistent"), &RealIo).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn chaos_torn_appends_degrade_to_skipped_lines() {
        let path = tmp("chaos-torn");
        let io = Arc::new(ChaosIo::new(ChaosConfig {
            torn_append: 1.0,
            ..ChaosConfig::uniform(11, 0.0)
        }));
        let j = Journal::open_with(&path, io.clone()).unwrap();
        let a = job(Benchmark::Fft);
        let err = j.submit(&a.key(), &a).unwrap_err();
        assert!(err.transient(), "torn append is a transient fault: {err}");
        assert_eq!(
            io.stats()
                .torn_appends
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        // The torn prefix must not surface as a phantom pending job, and
        // replay must be idempotent.
        let once = Journal::load_pending(&path).unwrap();
        let twice = Journal::load_pending(&path).unwrap();
        assert!(once.is_empty());
        assert_eq!(once.len(), twice.len());
        std::fs::remove_file(&path).ok();
    }
}
