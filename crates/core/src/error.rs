//! Error types for the Dimmunix engine.

use std::fmt;
use std::io;

/// Errors produced by the Dimmunix engine and its persistent history codecs.
#[derive(Debug)]
pub enum DimmunixError {
    /// A thread id was used before being registered with the engine.
    UnknownThread(crate::ThreadId),
    /// A lock id was used before being registered with the engine.
    UnknownLock(crate::LockId),
    /// A signature id does not exist in the history.
    UnknownSignature(crate::SignatureId),
    /// The engine observed an event that is inconsistent with its state
    /// (e.g. a release of a lock the thread does not hold).
    ProtocolViolation(String),
    /// Reading or writing the persistent history failed.
    Io(io::Error),
    /// The persistent history file is malformed.
    Parse {
        /// 1-based line number at which parsing failed (0 for JSON input).
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for DimmunixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimmunixError::UnknownThread(t) => write!(f, "unknown thread {t}"),
            DimmunixError::UnknownLock(l) => write!(f, "unknown lock {l}"),
            DimmunixError::UnknownSignature(s) => write!(f, "unknown signature {s}"),
            DimmunixError::ProtocolViolation(msg) => write!(f, "protocol violation: {msg}"),
            DimmunixError::Io(e) => write!(f, "history i/o error: {e}"),
            DimmunixError::Parse { line, message } => {
                write!(f, "history parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for DimmunixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DimmunixError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DimmunixError {
    fn from(e: io::Error) -> Self {
        DimmunixError::Io(e)
    }
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DimmunixError>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockId, SignatureId, ThreadId};

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<DimmunixError> = vec![
            DimmunixError::UnknownThread(ThreadId::new(1)),
            DimmunixError::UnknownLock(LockId::new(2)),
            DimmunixError::UnknownSignature(SignatureId::new(3)),
            DimmunixError::ProtocolViolation("release without hold".into()),
            DimmunixError::Parse {
                line: 4,
                message: "bad token".into(),
            },
        ];
        for c in cases {
            let msg = c.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn io_error_converts_and_sources() {
        let e: DimmunixError = io::Error::new(io::ErrorKind::NotFound, "missing").into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("missing"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DimmunixError>();
    }
}
