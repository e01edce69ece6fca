//! Error types for the channel substrate.

use std::error::Error;
use std::fmt;

use crate::endpoint::{Endpoint, Generation};

/// Error returned by [`Sender::try_send`](crate::spsc::Sender::try_send).
///
/// The rejected message is handed back to the caller so that it can decide
/// what to do with it (the paper's rule: *never block when the queue is
/// full* — each server takes its own action, e.g. the network stack drops a
/// packet while a storage stack would keep the request around).
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is full; the message is returned.
    Full(T),
    /// The receiving side is gone (crashed or detached); the message is
    /// returned.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Returns the message that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    /// Returns `true` if the send failed because the queue was full.
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    /// Returns `true` if the send failed because the peer disconnected.
    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => write!(f, "channel queue is full"),
            TrySendError::Disconnected(_) => write!(f, "channel receiver is disconnected"),
        }
    }
}

impl<T: fmt::Debug> Error for TrySendError<T> {}

/// Error returned by [`Receiver::try_recv`](crate::spsc::Receiver::try_recv).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// No message is currently queued.
    Empty,
    /// The sending side is gone and the queue is drained.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => write!(f, "channel queue is empty"),
            TryRecvError::Disconnected => write!(f, "channel sender is disconnected"),
        }
    }
}

impl Error for TryRecvError {}

/// Error returned by blocking receive operations with a timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The timeout elapsed before a message arrived.
    Timeout,
    /// The sending side is gone and the queue is drained.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => write!(f, "timed out waiting for a message"),
            RecvTimeoutError::Disconnected => write!(f, "channel sender is disconnected"),
        }
    }
}

impl Error for RecvTimeoutError {}

/// Errors raised by shared memory pools ([`crate::pool`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum PoolError {
    /// All chunks of the pool are currently allocated.
    Exhausted,
    /// The rich pointer refers to a chunk slot that does not exist.
    InvalidSlot { slot: u32, capacity: u32 },
    /// The rich pointer refers to a previous generation of the chunk (the
    /// owner freed or reset it since the pointer was created).
    StaleGeneration { expected: u32, found: u32 },
    /// The rich pointer's offset/length range is outside the published data.
    OutOfRange {
        offset: u32,
        len: u32,
        published: u32,
    },
    /// The rich pointer names a different pool.
    WrongPool,
    /// The chunk exists but no data has been published in it.
    NotPublished,
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "pool has no free chunks"),
            PoolError::InvalidSlot { slot, capacity } => {
                write!(
                    f,
                    "chunk slot {slot} out of range (pool has {capacity} chunks)"
                )
            }
            PoolError::StaleGeneration { expected, found } => write!(
                f,
                "stale rich pointer: chunk generation is {expected}, pointer carries {found}"
            ),
            PoolError::OutOfRange {
                offset,
                len,
                published,
            } => write!(
                f,
                "rich pointer range {offset}+{len} exceeds published length {published}"
            ),
            PoolError::WrongPool => write!(f, "rich pointer refers to a different pool"),
            PoolError::NotPublished => write!(f, "chunk has no published data"),
        }
    }
}

impl Error for PoolError {}

/// Errors raised by the channel/pool registry ([`crate::registry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum RegistryError {
    /// No object has been published under the requested name.
    UnknownName(String),
    /// The requester has not been granted access to the object.
    PermissionDenied { name: String, requester: Endpoint },
    /// The published object has a different type than the one requested.
    TypeMismatch(String),
    /// The object was published by an older incarnation and has been revoked.
    Revoked {
        name: String,
        generation: Generation,
    },
    /// A publication already exists under this name for the current
    /// generation of the creator.
    AlreadyPublished(String),
    /// The name is longer than a registry key holds
    /// ([`Name::MAX`](crate::registry::Name::MAX) bytes).
    NameTooLong(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownName(name) => write!(f, "no channel published under '{name}'"),
            RegistryError::PermissionDenied { name, requester } => {
                write!(f, "endpoint {requester} was not granted access to '{name}'")
            }
            RegistryError::TypeMismatch(name) => {
                write!(f, "published object '{name}' has a different type")
            }
            RegistryError::Revoked { name, generation } => {
                write!(f, "publication '{name}' from {generation} has been revoked")
            }
            RegistryError::AlreadyPublished(name) => {
                write!(f, "an object is already published under '{name}'")
            }
            RegistryError::NameTooLong(name) => {
                write!(f, "'{name}' is longer than a registry name may be")
            }
        }
    }
}

impl Error for RegistryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_send_error_reports_kind_and_returns_value() {
        let full = TrySendError::Full(7u32);
        assert!(full.is_full());
        assert!(!full.is_disconnected());
        assert_eq!(full.into_inner(), 7);

        let disc = TrySendError::Disconnected("msg".to_string());
        assert!(disc.is_disconnected());
        assert_eq!(disc.into_inner(), "msg");
    }

    #[test]
    fn display_messages_are_lowercase_and_non_empty() {
        let messages = vec![
            format!("{}", TrySendError::Full(())),
            format!("{}", TryRecvError::Empty),
            format!("{}", RecvTimeoutError::Timeout),
            format!("{}", PoolError::Exhausted),
            format!("{}", RegistryError::UnknownName("rx".into())),
        ];
        for msg in messages {
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn pool_error_variants_format() {
        let e = PoolError::StaleGeneration {
            expected: 3,
            found: 1,
        };
        assert!(format!("{e}").contains("stale"));
        let e = PoolError::OutOfRange {
            offset: 10,
            len: 20,
            published: 16,
        };
        assert!(format!("{e}").contains("exceeds"));
        let e = PoolError::InvalidSlot {
            slot: 9,
            capacity: 4,
        };
        assert!(format!("{e}").contains("out of range"));
    }

    #[test]
    fn errors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TryRecvError>();
        assert_send_sync::<RecvTimeoutError>();
        assert_send_sync::<PoolError>();
        assert_send_sync::<RegistryError>();
        assert_send_sync::<TrySendError<u64>>();
    }
}
