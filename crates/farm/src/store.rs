//! Content-addressed on-disk result store.
//!
//! Layout: one entry file per result at `objects/<k₀k₁>/<key>.bin`
//! (two-hex-char fan-out, git-style), holding the checksummed `PTBE`
//! frame of [`crate::binfmt`]. A key is the 32-char lowercase-hex digest
//! [`FarmJob::key`] produces, and each key has exactly one path. Any
//! other key maps to no path at all, so a key taken from a request can
//! never make the store touch a file outside its shard directories.
//!
//! The store is a cache, so it needs no converter: whatever else the
//! directory holds — `.json` entries or an `index.bin` left by older
//! layouts, a torn temp file — is never read, listed or counted. A
//! point stored only in an older layout is a miss: it is simulated once
//! more and stored as `.bin`.
//!
//! Writes are atomic (temp file + rename) and verified to round-trip
//! before they are published, so readers never observe a torn or
//! unparsable entry that was written by a healthy process. Reads
//! re-validate everything: the format versions, the embedded key
//! against the filename, and the embedded config against the request.
//! Whole-store questions ([`ResultStore::keys`],
//! [`ResultStore::disk_stats`]) walk the shard directories, so there is
//! no second on-disk state to go stale.
//!
//! All filesystem traffic flows through a [`FarmIo`] handle, so the
//! chaos test suite can inject ENOSPC, partial writes and read
//! corruption deterministically (see [`crate::io::ChaosIo`]); the store
//! must degrade — a failed write is reported as a typed
//! [`FarmError`], a corrupted read as a [`StoreLookup::Corrupt`] miss —
//! never panic or serve bad data.

use crate::binfmt;
use crate::error::FarmError;
use crate::io::{FarmIo, RealIo};
use crate::sync::lock;
use crate::FarmJob;
use ptb_core::RunReport;
use serde::{json, Deserialize, Serialize, Value};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// On-disk format version of store entries. Bump on any layout or
/// semantics change; old entries then fail validation and re-run.
/// (v2: `SimConfig` gained the `spin_cycle_budget` livelock watchdog.)
/// It is hashed into every job key, so a bump also re-keys every store.
pub const STORE_FORMAT: u32 = 2;

/// Outcome of a store lookup.
#[derive(Debug)]
pub enum StoreLookup {
    /// Entry present, valid, and matching the request.
    Hit(Box<RunReport>),
    /// No entry for this key.
    Miss,
    /// An entry exists but cannot be trusted (reason attached); the
    /// caller should remove it and re-simulate.
    Corrupt(String),
}

/// Size summary of a store, from [`ResultStore::disk_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreDiskStats {
    /// Entry files present (readable or not).
    pub entries: u64,
    /// Total bytes across those entry files.
    pub total_bytes: u64,
    /// Distinct two-hex-char shard directories in use.
    pub shards: u64,
}

/// Whether `key` has the shape [`FarmJob::key`] produces: 32 lowercase
/// hex chars.
fn is_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Content-addressed store of [`RunReport`]s under a root directory.
pub struct ResultStore {
    dir: PathBuf,
    io: Arc<dyn FarmIo>,
    /// Per-key write sequence numbers: the temp-file name discriminator
    /// that keeps two same-key writers in one process from colliding
    /// (see [`ResultStore::put`]).
    write_seq: Mutex<HashMap<String, u64>>,
}

impl ResultStore {
    /// Open (or create) a store rooted at `dir` on the real filesystem.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, FarmError> {
        Self::open_with(dir, Arc::new(RealIo))
    }

    /// Open (or create) a store rooted at `dir`, performing all
    /// filesystem operations through `io`.
    pub fn open_with(dir: impl AsRef<Path>, io: Arc<dyn FarmIo>) -> Result<Self, FarmError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)
            .map_err(|e| FarmError::io("create store dir", &dir, e))?;
        Ok(ResultStore {
            dir,
            io,
            write_seq: Mutex::new(HashMap::new()),
        })
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`, or `None` when `key` is not a
    /// content key. The one place a key becomes a path.
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        is_key(key).then(|| self.dir.join(&key[..2]).join(format!("{key}.bin")))
    }

    /// Persist `report` as the result of `job` under `key`.
    ///
    /// The encoded frame is decoded back before publication; a report
    /// that does not survive the round-trip identically (e.g. it
    /// contains a non-finite float) is rejected here — as
    /// [`FarmError::Unstorable`] — rather than poisoning the store. A
    /// `key` that is not a content key is [`FarmError::BadKey`].
    /// Filesystem failures come back as [`FarmError::Io`] with
    /// [`FarmError::transient`] distinguishing retryable ones; a failed
    /// write never leaves a partially-published entry because the
    /// temp-file + rename protocol cleans up after itself.
    pub fn put(&self, key: &str, job: &FarmJob, report: &RunReport) -> Result<(), FarmError> {
        let bad_key = || FarmError::BadKey {
            key: key.to_owned(),
        };
        let path = self.path_for(key).ok_or_else(bad_key)?;
        let parent = path.parent().ok_or_else(bad_key)?;
        let unstorable = |reason: String| FarmError::Unstorable {
            key: key.to_owned(),
            reason,
        };
        let report_v = report.to_value();
        let job_json = json::to_string(&job.to_value());
        let bytes = binfmt::encode(key, &job_json, &json::to_string(&report_v));
        let env = binfmt::decode(&bytes).map_err(&unstorable)?;
        let reparsed = json::parse(env.report_json).map_err(|e| unstorable(e.to_string()))?;
        let back = RunReport::from_value(&reparsed).map_err(|e| unstorable(e.to_string()))?;
        if back.to_value() != report_v {
            return Err(unstorable("report does not round-trip losslessly".into()));
        }

        self.io
            .create_dir_all(parent)
            .map_err(|e| FarmError::io("create entry dir", parent, e))?;
        // The temp name carries a per-key sequence number besides the
        // pid: two threads of one process writing the same key (batch
        // dedup misses cross-`Farm`-handle and serve-vs-CLI races) must
        // not share a temp path, or one writer renames the other's
        // half-written bytes into place. A *per-key* counter — not a
        // global one — keeps the path a pure function of (key, attempt
        // number), so ChaosIo's per-path fault sites stay replayable
        // regardless of how unrelated keys interleave.
        let seq = {
            let mut m = lock(&self.write_seq);
            let n = m.entry(key.to_owned()).or_insert(0);
            *n += 1;
            *n
        };
        let tmp = parent.join(format!(".{key}.{}.{seq}.tmp", std::process::id()));
        if let Err(e) = self.io.write(&tmp, &bytes) {
            // A torn temp file is invisible to readers (dot-prefixed,
            // never renamed in); drop it and surface the typed error.
            self.io.remove_file(&tmp).ok();
            return Err(FarmError::io("write entry", &tmp, e));
        }
        if let Err(e) = self.io.rename(&tmp, &path) {
            self.io.remove_file(&tmp).ok();
            return Err(FarmError::io("publish entry", &path, e));
        }
        Ok(())
    }

    /// Look up `key`, validating the entry against the requesting `job`.
    pub fn get(&self, key: &str, job: &FarmJob) -> StoreLookup {
        let (env_job, report_v) = match self.read_validated(key) {
            Ok(Some(parts)) => parts,
            Ok(None) => return StoreLookup::Miss,
            Err(reason) => return StoreLookup::Corrupt(reason),
        };
        // The content hash already covers the config, but a 128-bit FNV
        // digest is not collision-proof: compare the stored config tree
        // against the request so a collision (or a manually edited
        // entry) re-runs instead of answering for the wrong point.
        if env_job.config.to_value() != job.config.to_value() {
            return StoreLookup::Corrupt("stored config does not match request".into());
        }
        if env_job.bench != job.bench {
            return StoreLookup::Corrupt("stored benchmark does not match request".into());
        }
        match RunReport::from_value(&report_v) {
            Ok(report) => StoreLookup::Hit(Box::new(report)),
            Err(e) => StoreLookup::Corrupt(format!("report: {e}")),
        }
    }

    /// Load the entry for `key` without an external request to compare
    /// against — the serving path's report fetch. Returns the embedded
    /// job and report; `Ok(None)` when absent, `Err` when present but
    /// invalid.
    pub fn read_entry(&self, key: &str) -> Result<Option<(FarmJob, RunReport)>, String> {
        let Some((job, report_v)) = self.read_validated(key)? else {
            return Ok(None);
        };
        let report = RunReport::from_value(&report_v).map_err(|e| format!("report: {e}"))?;
        Ok(Some((job, report)))
    }

    /// Remove the entry for `key`, if present.
    pub fn remove(&self, key: &str) {
        if let Some(path) = self.path_for(key) {
            self.io.remove_file(&path).ok();
        }
    }

    /// All keys currently present, sorted (including entries that would
    /// fail validation — use [`ResultStore::verify_entry`] to check
    /// them).
    pub fn keys(&self) -> Result<Vec<String>, FarmError> {
        Ok(self.entries()?.into_iter().map(|(key, _)| key).collect())
    }

    /// Walk the shard directories: every `<k₀k₁>/<key>.bin` entry file
    /// as `(key, path)`, sorted by key. Nothing else is listed.
    fn entries(&self) -> Result<Vec<(String, PathBuf)>, FarmError> {
        let mut out = Vec::new();
        let names = self
            .io
            .read_dir_names(&self.dir)
            .map_err(|e| FarmError::io("list store", &self.dir, e))?;
        for shard in names {
            let shard_dir = self.dir.join(&shard);
            if shard.len() != 2 || !shard_dir.is_dir() {
                continue;
            }
            let files = self
                .io
                .read_dir_names(&shard_dir)
                .map_err(|e| FarmError::io("list shard", &shard_dir, e))?;
            for name in files {
                let Some(key) = name.strip_suffix(".bin") else {
                    continue;
                };
                if is_key(key) && key.starts_with(shard.as_str()) {
                    out.push((key.to_owned(), shard_dir.join(&name)));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Number of entries present.
    pub fn len(&self) -> usize {
        self.keys().map(|k| k.len()).unwrap_or(0)
    }

    /// Entry count, total bytes, and shard fan-out, from a walk of the
    /// shard directories plus one `stat` per entry. Its callers are
    /// status queries (`farm_ctl status`, `GET /v1/status`), never the
    /// lookup path.
    pub fn disk_stats(&self) -> Result<StoreDiskStats, FarmError> {
        let mut stats = StoreDiskStats::default();
        let mut shards = BTreeSet::new();
        for (key, path) in self.entries()? {
            // An entry removed between the walk and the stat is gone.
            let Ok(size) = self.io.file_size(&path) else {
                continue;
            };
            stats.entries += 1;
            stats.total_bytes += size;
            shards.insert(key[..2].to_owned());
        }
        stats.shards = shards.len() as u64;
        Ok(stats)
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self-validate the entry stored under `key` without an external
    /// request to compare against: checks formats, that the embedded key
    /// matches the filename, that the embedded job re-hashes to that
    /// key, and that the report deserialises.
    pub fn verify_entry(&self, key: &str) -> Result<(), String> {
        let (job, report_v) = self
            .read_validated(key)?
            .ok_or_else(|| "missing entry".to_owned())?;
        if job.key() != key {
            return Err("embedded job does not hash to this key".into());
        }
        RunReport::from_value(&report_v).map_err(|e| format!("report: {e}"))?;
        Ok(())
    }

    /// Read and validate the entry for `key`: frame checks, format
    /// versions, embedded key. Returns the embedded job and the raw
    /// report value; `Ok(None)` when no entry exists, including for a
    /// `key` that is not a content key.
    fn read_validated(&self, key: &str) -> Result<Option<(FarmJob, Value)>, String> {
        let Some(path) = self.path_for(key) else {
            return Ok(None);
        };
        let bytes = match self.io.read_bytes(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        let env = binfmt::decode(&bytes)?;
        if env.store_format != STORE_FORMAT {
            return Err(format!(
                "store format {} != current {STORE_FORMAT} (stale)",
                env.store_format
            ));
        }
        if env.report_format != ptb_core::report::REPORT_FORMAT {
            return Err(format!(
                "report format {} != current {} (stale)",
                env.report_format,
                ptb_core::report::REPORT_FORMAT
            ));
        }
        if env.key != key {
            return Err("embedded key does not match filename".into());
        }
        let job_v = json::parse(env.job_json).map_err(|e| format!("job parse: {e}"))?;
        let job = FarmJob::from_value(&job_v).map_err(|e| format!("job: {e}"))?;
        let report_v = json::parse(env.report_json).map_err(|e| format!("report parse: {e}"))?;
        Ok(Some((job, report_v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptb_core::{MechanismKind, SimConfig};
    use ptb_workloads::{Benchmark, Scale};

    fn tiny_job() -> FarmJob {
        FarmJob::new(
            Benchmark::Fft,
            SimConfig {
                n_cores: 2,
                scale: Scale::Test,
                mechanism: MechanismKind::None,
                ..SimConfig::default()
            },
        )
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ptb-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn binary_entries_round_trip_and_verify() {
        let dir = store_dir("binfmt");
        let store = ResultStore::open(&dir).expect("open store");
        let job = tiny_job();
        let key = job.key();
        let report = job.simulate();
        store.put(&key, &job, &report).expect("put");
        assert!(store.path_for(&key).expect("content key").exists());
        match store.get(&key, &job) {
            StoreLookup::Hit(back) => assert_eq!(back.to_value(), report.to_value()),
            other => panic!("expected hit, got {other:?}"),
        }
        store.verify_entry(&key).expect("verify");
        let (env_job, env_report) = store.read_entry(&key).expect("read").expect("present");
        assert_eq!(env_job.key(), key);
        assert_eq!(env_report.to_value(), report.to_value());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_stats_walk_the_shards_and_survive_reopen() {
        let dir = store_dir("stats");
        let store = ResultStore::open(&dir).expect("open store");
        let report = tiny_job().simulate();
        // One report under several keys: `max_cycles` is hashed.
        let jobs: Vec<FarmJob> = (0..4)
            .map(|i| {
                let mut job = tiny_job();
                job.config.max_cycles += i;
                job
            })
            .collect();
        for job in &jobs[..3] {
            store.put(&job.key(), job, &report).expect("put");
        }
        let bytes: u64 = jobs[..3]
            .iter()
            .map(|j| {
                std::fs::metadata(store.path_for(&j.key()).unwrap())
                    .unwrap()
                    .len()
            })
            .sum();
        let shards: BTreeSet<String> = jobs[..3].iter().map(|j| j.key()[..2].into()).collect();
        let want = StoreDiskStats {
            entries: 3,
            total_bytes: bytes,
            shards: shards.len() as u64,
        };
        assert_eq!(store.disk_stats().expect("stats"), want);

        // Leftovers of older layouts and of a torn write: none of them is
        // counted, listed or read. The JSON files hold garbage, so a
        // read would turn the lookups below into `Corrupt`.
        let (kept, absent) = (jobs[0].key(), jobs[3].key());
        std::fs::write(dir.join("index.bin"), b"PTBI stale index").unwrap();
        std::fs::write(dir.join(format!("{absent}.json")), b"{garbage").unwrap();
        for key in [&kept, &absent] {
            let shard = dir.join(&key[..2]);
            std::fs::create_dir_all(&shard).unwrap();
            std::fs::write(shard.join(format!("{key}.json")), b"{garbage").unwrap();
            std::fs::write(shard.join(format!(".{key}.1.1.tmp")), b"torn").unwrap();
        }
        let reopened = ResultStore::open(&dir).expect("reopen");
        assert_eq!(reopened.disk_stats().expect("stats"), want);
        assert_eq!(reopened.len(), 3);
        assert!(matches!(reopened.get(&kept, &jobs[0]), StoreLookup::Hit(_)));
        assert!(matches!(reopened.get(&absent, &jobs[3]), StoreLookup::Miss));

        let kept_bytes = std::fs::metadata(store.path_for(&kept).unwrap())
            .unwrap()
            .len();
        store.remove(&kept);
        let stats = reopened.disk_stats().expect("stats");
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.total_bytes, bytes - kept_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A key that is not a content key names no file: nothing outside
    /// the shard directories is read, written or removed through it.
    #[test]
    fn non_content_keys_never_reach_the_filesystem() {
        let root = store_dir("badkey");
        let dir = root.join("farm").join("objects");
        let store = ResultStore::open(&dir).expect("open store");
        let job = tiny_job();
        let report = job.simulate();
        let outside = root.join("outside.bin");
        std::fs::write(&outside, b"not for the store").unwrap();
        for key in [
            "../../outside",
            "../outside",
            "",
            "xx",
            &job.key().to_uppercase(),
        ] {
            assert!(store.path_for(key).is_none(), "{key:?}");
            assert!(matches!(store.get(key, &job), StoreLookup::Miss), "{key:?}");
            assert!(matches!(store.read_entry(key), Ok(None)), "{key:?}");
            assert!(store.verify_entry(key).is_err(), "{key:?}");
            assert!(matches!(
                store.put(key, &job, &report),
                Err(FarmError::BadKey { .. })
            ));
            store.remove(key);
        }
        assert!(outside.exists(), "remove stayed inside the store");
        assert!(store.is_empty(), "put wrote nothing");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Regression: two threads writing the same key simultaneously used
    /// to share one `.{key}.{pid}.tmp` path — writer A could rename
    /// writer B's half-written temp file into place, or B's rename
    /// could fail with NotFound after A consumed the path. The per-key
    /// sequence discriminator gives every write attempt its own temp
    /// file, so all writers succeed and the published entry verifies.
    #[test]
    fn simultaneous_same_key_writers_do_not_collide() {
        let dir = store_dir("tmprace");
        let store = ResultStore::open(&dir).expect("open store");
        let job = tiny_job();
        let key = job.key();
        let report = job.simulate();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(s.spawn(|| {
                    barrier.wait();
                    for _ in 0..16 {
                        store.put(&key, &job, &report)?;
                    }
                    Ok::<(), FarmError>(())
                }));
            }
            for h in handles {
                h.join().expect("no panic").expect("every put succeeds");
            }
        });
        store.verify_entry(&key).expect("published entry is intact");
        assert_eq!(store.len(), 1);
        // No temp-file litter left behind.
        let shard = dir.join(&key[..2]);
        for entry in std::fs::read_dir(&shard).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "leftover temp file {name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
