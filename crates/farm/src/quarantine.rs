//! Quarantine manifest for failed jobs (`failed.jsonl`).
//!
//! When a sweep runs with `--keep-going`, jobs that panic, time out, or
//! exhaust their retries are not lost: each one is appended to a
//! JSONL manifest next to the farm store, one self-contained object per
//! line:
//!
//! ```json
//! {"key":"6f0c…","label":"fft/ptb/8c/Test","kind":"panic",
//!  "error":"panicked: …","attempts":1,
//!  "job":{"bench":"fft","config":{…}}}
//! ```
//!
//! The embedded `job` is the full replayable [`FarmJob`] — the exact
//! `SimConfig` JSON the farm ran — so `sim_check --replay failed.jsonl`
//! can re-execute a quarantined point under the validation oracles, and
//! `farm_ctl resume` can retry the whole manifest, rewriting it to keep
//! only the entries that failed again.

use crate::error::{FarmError, JobError};
use crate::FarmJob;
use serde::{json, Deserialize, Map, Serialize, Value};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the quarantine manifest inside a farm directory.
pub const QUARANTINE_FILE: &str = "failed.jsonl";

/// One quarantined job: what failed, how, and everything needed to
/// replay it.
#[derive(Debug, Clone)]
pub struct QuarantineEntry {
    /// Content key of the job (matches the store/journal key).
    pub key: String,
    /// Human-readable job label (`bench/mech/Nc/Scale`).
    pub label: String,
    /// Failure class: `"panic"`, `"error"`, or `"timeout"`.
    pub kind: String,
    /// Full failure message.
    pub error: String,
    /// Attempts consumed before giving up.
    pub attempts: u32,
    /// The replayable job (benchmark + full `SimConfig`).
    pub job: FarmJob,
}

impl QuarantineEntry {
    /// Build an entry from a failed job and its error.
    pub fn new(job: &FarmJob, err: &JobError) -> Self {
        QuarantineEntry {
            key: job.key(),
            label: job.label(),
            kind: err.kind().to_owned(),
            error: err.to_string(),
            attempts: err.attempts(),
            job: job.clone(),
        }
    }
}

/// Handle on a quarantine manifest file.
#[derive(Debug, Clone)]
pub struct Quarantine {
    path: PathBuf,
}

impl Quarantine {
    /// The manifest of the farm rooted at `dir` (`<dir>/failed.jsonl`).
    pub fn in_dir(dir: impl AsRef<Path>) -> Self {
        Quarantine {
            path: dir.as_ref().join(QUARANTINE_FILE),
        }
    }

    /// Location of the manifest file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one entry. Each entry is a single `write_all` of one
    /// line, so concurrent appends from worker threads interleave at
    /// line granularity and a torn tail is skipped by [`Quarantine::load`].
    pub fn record(&self, entry: &QuarantineEntry) -> Result<(), FarmError> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| FarmError::io("create quarantine dir", parent, e))?;
        }
        let mut line = json::to_string(&entry.to_value());
        line.push('\n');
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| FarmError::io("open quarantine", &self.path, e))?;
        f.write_all(line.as_bytes())
            .map_err(|e| FarmError::io("append quarantine", &self.path, e))
    }

    /// Load every parsable entry. A missing file is an empty manifest;
    /// unparsable lines (crash-torn tails) are skipped.
    pub fn load(&self) -> Result<Vec<QuarantineEntry>, FarmError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(FarmError::io("read quarantine", &self.path, e)),
        };
        Ok(text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| json::parse(l).ok())
            .filter_map(|v| QuarantineEntry::from_value(&v).ok())
            .collect())
    }

    /// Replace the manifest with exactly `entries` (atomically, via
    /// temp + rename). An empty slice removes the file entirely so a
    /// fully-recovered farm leaves no `failed.jsonl` behind.
    pub fn rewrite(&self, entries: &[QuarantineEntry]) -> Result<(), FarmError> {
        if entries.is_empty() {
            match std::fs::remove_file(&self.path) {
                Ok(()) => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(FarmError::io("remove quarantine", &self.path, e)),
            }
        }
        let mut text = String::new();
        for entry in entries {
            text.push_str(&json::to_string(&entry.to_value()));
            text.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, text.as_bytes())
            .map_err(|e| FarmError::io("write quarantine", &tmp, e))?;
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| FarmError::io("publish quarantine", &self.path, e))
    }

    /// Number of parsable entries currently quarantined.
    pub fn len(&self) -> usize {
        self.load().map(|e| e.len()).unwrap_or(0)
    }

    /// True when nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Convenience: `Value` round-trip helpers mirroring the derive style.
impl QuarantineEntry {
    /// Serialise to a JSON value tree.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("key".into(), Value::Str(self.key.clone()));
        m.insert("label".into(), Value::Str(self.label.clone()));
        m.insert("kind".into(), Value::Str(self.kind.clone()));
        m.insert("error".into(), Value::Str(self.error.clone()));
        m.insert("attempts".into(), Value::U64(u64::from(self.attempts)));
        m.insert("job".into(), self.job.to_value());
        Value::Object(m)
    }

    /// Deserialise from a JSON value tree.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let get_str = |field: &str| -> Result<String, String> {
            v.get(field)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("quarantine entry missing {field}"))
        };
        let job_v = v.get("job").ok_or("quarantine entry missing job")?;
        Ok(QuarantineEntry {
            key: get_str("key")?,
            label: get_str("label")?,
            kind: get_str("kind")?,
            error: get_str("error")?,
            attempts: v
                .get("attempts")
                .and_then(Value::as_u64)
                .unwrap_or(1)
                .min(u64::from(u32::MAX)) as u32,
            job: <FarmJob as Deserialize>::from_value(job_v).map_err(|e| e.to_string())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptb_core::SimConfig;
    use ptb_workloads::{Benchmark, Scale};

    fn entry(bench: Benchmark) -> QuarantineEntry {
        let job = FarmJob::new(
            bench,
            SimConfig {
                n_cores: 2,
                scale: Scale::Test,
                ..SimConfig::default()
            },
        );
        QuarantineEntry::new(
            &job,
            &JobError::Panicked {
                message: "boom".into(),
            },
        )
    }

    fn tmp(name: &str) -> Quarantine {
        let p = std::env::temp_dir().join(format!("ptb-quar-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        Quarantine::in_dir(p)
    }

    #[test]
    fn record_load_round_trip() {
        let q = tmp("roundtrip");
        assert!(q.is_empty());
        q.record(&entry(Benchmark::Fft)).unwrap();
        q.record(&entry(Benchmark::Radix)).unwrap();
        let loaded = q.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].kind, "panic");
        assert_eq!(loaded[0].job.bench, Benchmark::Fft);
        assert_eq!(loaded[0].key, loaded[0].job.key(), "key stays consistent");
        assert_eq!(loaded[1].job.bench, Benchmark::Radix);
        std::fs::remove_dir_all(q.path().parent().unwrap()).ok();
    }

    #[test]
    fn rewrite_drops_recovered_entries_and_empties_cleanly() {
        let q = tmp("rewrite");
        q.record(&entry(Benchmark::Fft)).unwrap();
        q.record(&entry(Benchmark::Radix)).unwrap();
        let mut all = q.load().unwrap();
        all.retain(|e| e.job.bench == Benchmark::Radix);
        q.rewrite(&all).unwrap();
        let left = q.load().unwrap();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].job.bench, Benchmark::Radix);
        q.rewrite(&[]).unwrap();
        assert!(!q.path().exists(), "empty manifest removes the file");
        std::fs::remove_dir_all(q.path().parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let q = tmp("torn");
        q.record(&entry(Benchmark::Ocean)).unwrap();
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(q.path())
                .unwrap();
            f.write_all(b"{\"key\":\"dead").unwrap();
        }
        assert_eq!(q.load().unwrap().len(), 1);
        std::fs::remove_dir_all(q.path().parent().unwrap()).ok();
    }
}
