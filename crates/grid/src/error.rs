//! The one error type every grid layer speaks.

use hyperroute_core::ConfigError;

/// Why a grid operation failed.
///
/// Worker-loss conditions (crash, timeout, garbled reply) are retried by
/// the subprocess backend and only surface as [`GridError::SliceLost`]
/// after the retry budget is spent; [`GridError::SliceFailed`] is a
/// *deterministic* failure reported by a healthy worker, which retrying
/// cannot fix.
#[derive(Clone, Debug, PartialEq)]
pub enum GridError {
    /// A scenario inside a slice failed validation.
    Config(ConfigError),
    /// Filesystem trouble (cache directory, corpus files, output).
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, stringified.
        error: String,
    },
    /// A worker process could not be started at all.
    Spawn {
        /// The command line that failed.
        cmd: String,
        /// The underlying error, stringified.
        error: String,
    },
    /// A slice was lost repeatedly to worker crashes or timeouts.
    SliceLost {
        /// Id of the slice that could not be completed.
        slice: u64,
        /// Attempts made (1 + retries).
        attempts: usize,
        /// The last observed failure.
        last_error: String,
    },
    /// A worker reported a deterministic failure for a slice.
    SliceFailed {
        /// Id of the failing slice.
        slice: u64,
        /// The worker's error message.
        message: String,
    },
    /// Slice results do not tile the grid (a dispatcher bug, or a
    /// worker reply that claims a range other than its slice's).
    Merge(String),
    /// The scenario corpus is malformed (no files, unreadable directory).
    Corpus(String),
    /// The sweep service refused a request (submit queue full, service
    /// shut down, unknown campaign).
    Service(String),
}

impl From<ConfigError> for GridError {
    fn from(e: ConfigError) -> GridError {
        GridError::Config(e)
    }
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::Config(e) => write!(f, "invalid scenario in grid: {e}"),
            GridError::Io { path, error } => write!(f, "io error at {path}: {error}"),
            GridError::Spawn { cmd, error } => {
                write!(f, "could not spawn worker `{cmd}`: {error}")
            }
            GridError::SliceLost {
                slice,
                attempts,
                last_error,
            } => write!(
                f,
                "slice {slice} lost after {attempts} attempts; last error: {last_error}"
            ),
            GridError::SliceFailed { slice, message } => {
                write!(f, "slice {slice} failed deterministically: {message}")
            }
            GridError::Merge(msg) => write!(f, "cannot merge slice results: {msg}"),
            GridError::Corpus(msg) => write!(f, "corpus rejected: {msg}"),
            GridError::Service(msg) => write!(f, "service refused: {msg}"),
        }
    }
}

impl std::error::Error for GridError {}

/// Shorthand for filesystem failures tagged with their path.
pub(crate) fn io_error(path: &std::path::Path, error: impl std::fmt::Display) -> GridError {
    GridError::Io {
        path: path.display().to_string(),
        error: error.to_string(),
    }
}
