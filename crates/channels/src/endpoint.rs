//! Endpoint identifiers for servers and drivers.
//!
//! Every operating-system component (server, driver, application process) in
//! the multiserver design is addressed by an [`Endpoint`].  Endpoints are
//! stable across restarts of a component: when the reincarnation server
//! restarts a crashed server, the new incarnation keeps the endpoint but is
//! given a fresh [`Generation`], so that peers can tell stale messages and
//! stale shared-memory exports apart from current ones.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies one operating-system component (a server, driver or process).
///
/// An endpoint is a small copyable token.  The numeric value is assigned by
/// whoever creates the component — the stack's well-known endpoints
/// (`newt_stack::endpoints`) or the reincarnation server — and carries no
/// meaning besides identity.
///
/// # Examples
///
/// ```
/// use newt_channels::endpoint::Endpoint;
///
/// let ip = Endpoint::from_raw(3);
/// assert_eq!(ip.as_raw(), 3);
/// assert_ne!(ip, Endpoint::from_raw(4));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Endpoint(u32);

impl Endpoint {
    /// Creates an endpoint from a raw number.
    pub const fn from_raw(raw: u32) -> Self {
        Endpoint(raw)
    }

    /// Returns the raw numeric value of the endpoint.
    pub const fn as_raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Endpoint({})", self.0)
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep:{}", self.0)
    }
}

/// Restart generation of a component.
///
/// Incremented every time the reincarnation server restarts the component.
/// Shared-memory exports, published channels and rich pointers are tagged
/// with the generation of their creator so that consumers can detect stale
/// resources after a crash.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct Generation(u32);

impl Generation {
    /// The generation of a component that has never been restarted.
    pub const FIRST: Generation = Generation(0);

    /// Creates a generation from a raw counter value.
    pub const fn from_raw(raw: u32) -> Self {
        Generation(raw)
    }

    /// Returns the raw counter value.
    pub const fn as_raw(self) -> u32 {
        self.0
    }

    /// Returns the generation following this one.
    #[must_use]
    pub const fn next(self) -> Generation {
        Generation(self.0 + 1)
    }

    /// Returns `true` if `self` is an older incarnation than `other`.
    pub const fn is_stale_relative_to(self, other: Generation) -> bool {
        self.0 < other.0
    }
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gen:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trip() {
        let ep = Endpoint::from_raw(42);
        assert_eq!(ep.as_raw(), 42);
        assert_eq!(format!("{ep}"), "ep:42");
        assert_eq!(format!("{ep:?}"), "Endpoint(42)");
    }

    #[test]
    fn generation_ordering() {
        let g0 = Generation::FIRST;
        let g1 = g0.next();
        let g2 = g1.next();
        assert!(g0.is_stale_relative_to(g1));
        assert!(g1.is_stale_relative_to(g2));
        assert!(!g2.is_stale_relative_to(g2));
        assert!(!g2.is_stale_relative_to(g0));
        assert_eq!(g2.as_raw(), 2);
    }
}
