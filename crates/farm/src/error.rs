//! Typed failure taxonomy for the farm.
//!
//! Two layers:
//!
//! * [`FarmError`] — store/journal infrastructure failures (filesystem
//!   errors with their operation and path attached, malformed keys,
//!   reports that cannot be persisted). Replaces the `unwrap`/`expect`
//!   calls that used to panic the library on a corrupt store.
//! * [`JobError`] — per-job failures returned by the executor: a panic
//!   caught inside a worker, a simulation error, a wall-clock timeout,
//!   or an I/O error that survived retrying. One failed job no longer
//!   aborts a batch; it is reported alongside the other jobs' results
//!   and can be quarantined for later replay.

use std::io;
use std::path::{Path, PathBuf};

/// A store/journal infrastructure failure.
#[derive(Debug)]
pub enum FarmError {
    /// A filesystem operation failed.
    Io {
        /// What the farm was doing (`"write"`, `"rename"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A content key that cannot name a store entry: anything but the
    /// 32-char lowercase-hex digest [`crate::FarmJob::key`] produces.
    BadKey {
        /// The offending key.
        key: String,
    },
    /// A report that does not survive the JSON round-trip losslessly
    /// and therefore cannot be cached (it is still correct in memory).
    Unstorable {
        /// Key of the job whose report was rejected.
        key: String,
        /// Why the round-trip failed.
        reason: String,
    },
}

impl FarmError {
    /// Wrap an [`io::Error`] with its operation and path.
    pub fn io(op: &'static str, path: impl AsRef<Path>, source: io::Error) -> Self {
        FarmError::Io {
            op,
            path: path.as_ref().to_path_buf(),
            source,
        }
    }

    /// True for failures that plausibly clear on retry (full disk being
    /// freed, interrupted syscalls, partial writes). Retrying a
    /// non-transient failure — a malformed key, an unstorable report —
    /// would fail identically every time.
    pub fn transient(&self) -> bool {
        match self {
            FarmError::Io { source, .. } => matches!(
                source.kind(),
                io::ErrorKind::StorageFull
                    | io::ErrorKind::Interrupted
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WriteZero
                    | io::ErrorKind::ResourceBusy
            ),
            FarmError::BadKey { .. } | FarmError::Unstorable { .. } => false,
        }
    }
}

impl std::fmt::Display for FarmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmError::Io { op, path, source } => {
                write!(f, "{op} {}: {source}", path.display())
            }
            FarmError::BadKey { key } => write!(f, "malformed store key {key:?}"),
            FarmError::Unstorable { key, reason } => {
                write!(f, "report for {key} cannot be persisted: {reason}")
            }
        }
    }
}

impl std::error::Error for FarmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Why one job of a batch produced no result.
///
/// Returned per-slot by [`crate::exec::run_work_stealing`] so a
/// poisoned simulation is isolated instead of aborting the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked inside its worker (caught with `catch_unwind`).
    /// Panics are never retried: a deterministic simulation that
    /// panicked once will panic again.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The job returned an error every time it ran.
    Failed {
        /// The final attempt's error.
        message: String,
        /// How many times it was attempted (> 1 only for transient
        /// failures under the retry policy).
        attempts: u32,
    },
    /// The job exceeded the per-job wall-clock watchdog.
    TimedOut {
        /// The final attempt's error (carries simulated-cycle progress).
        message: String,
    },
}

impl JobError {
    /// Short machine-readable class, used as the `kind` field of
    /// quarantine manifest entries.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panicked { .. } => "panic",
            JobError::Failed { .. } => "error",
            JobError::TimedOut { .. } => "timeout",
        }
    }

    /// Attempts consumed (1 unless transient retries happened).
    pub fn attempts(&self) -> u32 {
        match self {
            JobError::Failed { attempts, .. } => *attempts,
            _ => 1,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked { message } => write!(f, "panicked: {message}"),
            JobError::Failed { message, attempts } => {
                write!(f, "failed after {attempts} attempt(s): {message}")
            }
            JobError::TimedOut { message } => write!(f, "timed out: {message}"),
        }
    }
}

impl std::error::Error for JobError {}
