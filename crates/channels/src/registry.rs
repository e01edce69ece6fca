//! The registry of shared objects: pool readers, socket buffers and ring
//! queues, keyed by inline [`Name`]s.
//!
//! There is no global manager in the system — servers set their channels up
//! themselves (paper §IV-C).  In the paper a restarted server announces
//! itself through a publish/subscribe registry, and crashes reach its peers
//! the same way (§IV-C, §IV-D).  This reproduction gives both jobs to other
//! code: the stack's lanes are built once and re-acquired from the fabric's
//! parking slots, and crash notices go through the fabric's crash board
//! (`docs/ARCHITECTURE.md`, "Channel setup: built once, not negotiated").
//! What is left here is the table of objects that more than one server
//! attaches to.
//!
//! The [`Registry`] stands in for the trusted third party of §IV-A (the
//! virtual memory manager) in the checks that matter after a crash: only
//! the creator of a name may revoke it or republish it under a newer
//! [`Generation`] — which replaces the stale incarnation's object for every
//! later attacher (paper §IV-D) — and any endpoint may attach.

use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::endpoint::{Endpoint, Generation};
use crate::error::RegistryError;

/// A published name, held inline: the table is keyed by it, so publishing
/// allocates nothing for the name.  It holds at most [`Name::MAX`] bytes —
/// the longest name the stack publishes, `sockbuf/<proto>/<u64>`, fits.
#[derive(Clone, Copy, Default)]
pub struct Name {
    len: u8,
    bytes: [u8; Name::MAX],
}

impl Name {
    /// The longest name, in bytes.
    pub const MAX: usize = 32;

    /// `name` held inline, or `None` if it is longer than [`Name::MAX`].
    pub fn new(name: &str) -> Option<Self> {
        let mut inline = Name::default();
        fmt::Write::write_str(&mut inline, name).ok()?;
        Some(inline)
    }

    /// The name.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).expect("written from whole strs")
    }
}

/// Appends to the name; a part that does not fit leaves it unchanged and
/// fails.
impl fmt::Write for Name {
    fn write_str(&mut self, part: &str) -> fmt::Result {
        let start = self.len as usize;
        let end = start + part.len();
        self.bytes
            .get_mut(start..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(part.as_bytes());
        self.len = end as u8;
        Ok(())
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

/// Lookups by a borrowed `&str` find the name: equality, ordering and the
/// hash are those of the string.
impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

struct Entry {
    creator: Endpoint,
    generation: Generation,
    object: Arc<dyn Any + Send + Sync>,
}

/// The table of shared objects.
///
/// Cloning a `Registry` is cheap and yields a handle to the same table.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use newt_channels::endpoint::{Endpoint, Generation};
/// use newt_channels::registry::Registry;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = Registry::new();
/// let ip = Endpoint::from_raw(3);
///
/// registry.publish_shared(ip, Generation::FIRST, "ip.rx-pool",
///                         Arc::new("pretend this is a pool reader".to_string()))?;
/// let pool: Arc<String> = registry.attach_shared("ip.rx-pool")?;
/// assert!(pool.contains("pool reader"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<HashMap<Name, Entry>>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("published", &self.entries.lock().len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty registry pre-sized for roughly `entries` published
    /// names.  A sharded stack publishes a socket buffer per socket per
    /// replica; sizing the table up front keeps the publish path from
    /// rehashing under load.
    pub fn with_capacity(entries: usize) -> Self {
        Registry {
            entries: Arc::new(Mutex::new(HashMap::with_capacity(entries))),
        }
    }

    /// Publishes a shared object (e.g. a pool reader) under `name`.  A
    /// creator that restarted replaces its older incarnation's object by
    /// publishing under a newer generation.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::AlreadyPublished`] if an object of the same
    /// or a newer generation, or one of another creator, already exists
    /// under this name, and [`RegistryError::NameTooLong`] if `name` has
    /// more than [`Name::MAX`] bytes.
    pub fn publish_shared<T: Send + Sync + 'static>(
        &self,
        creator: Endpoint,
        generation: Generation,
        name: &str,
        object: Arc<T>,
    ) -> Result<(), RegistryError> {
        let key = Name::new(name).ok_or_else(|| RegistryError::NameTooLong(name.to_string()))?;
        let mut entries = self.entries.lock();
        // Only the creator's newer incarnation may replace an entry.
        let taken = entries.get(name).is_some_and(|existing| {
            existing.creator != creator || !existing.generation.is_stale_relative_to(generation)
        });
        if taken {
            return Err(RegistryError::AlreadyPublished(name.to_string()));
        }
        entries.insert(
            key,
            Entry {
                creator,
                generation,
                object,
            },
        );
        Ok(())
    }

    /// Attaches to the shared object published under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownName`] if nothing is published and
    /// [`RegistryError::TypeMismatch`] if the stored object has a different
    /// type.
    pub fn attach_shared<T: Send + Sync + 'static>(
        &self,
        name: &str,
    ) -> Result<Arc<T>, RegistryError> {
        let entries = self.entries.lock();
        let entry = entries
            .get(name)
            .ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
        Arc::clone(&entry.object)
            .downcast::<T>()
            .map_err(|_| RegistryError::TypeMismatch(name.to_string()))
    }

    /// Withdraws a publication.  Only the creator (any generation) may
    /// revoke.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownName`] or
    /// [`RegistryError::PermissionDenied`].
    pub fn revoke(&self, revoker: Endpoint, name: &str) -> Result<(), RegistryError> {
        let mut entries = self.entries.lock();
        let entry = entries
            .get(name)
            .ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
        if entry.creator != revoker {
            return Err(RegistryError::PermissionDenied {
                name: name.to_string(),
                requester: revoker,
            });
        }
        entries.remove(name);
        Ok(())
    }

    /// Returns `true` if something is currently published under `name`.
    pub fn exists(&self, name: &str) -> bool {
        self.entries.lock().contains_key(name)
    }

    /// Lists publications whose name starts with `prefix`.
    pub fn list(&self, prefix: &str) -> Vec<(String, Endpoint, Generation)> {
        let entries = self.entries.lock();
        let mut out: Vec<(String, Endpoint, Generation)> = entries
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, e)| (name.to_string(), e.creator, e.generation))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(n: u32) -> Endpoint {
        Endpoint::from_raw(n)
    }

    #[test]
    fn shared_publish_and_attach() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "ip.pool", Arc::new(42u64))
            .unwrap();
        let v: Arc<u64> = reg.attach_shared("ip.pool").unwrap();
        assert_eq!(*v, 42);
        assert!(reg.exists("ip.pool"));
    }

    #[test]
    fn unknown_name_and_type_mismatch() {
        let reg = Registry::new();
        assert!(matches!(
            reg.attach_shared::<u64>("nope"),
            Err(RegistryError::UnknownName(_))
        ));
        reg.publish_shared(ep(1), Generation::FIRST, "x", Arc::new(1u32))
            .unwrap();
        assert!(matches!(
            reg.attach_shared::<String>("x"),
            Err(RegistryError::TypeMismatch(_))
        ));
    }

    #[test]
    fn duplicate_publish_same_generation_rejected() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "dup", Arc::new(1u8))
            .unwrap();
        assert!(matches!(
            reg.publish_shared(ep(1), Generation::FIRST, "dup", Arc::new(2u8)),
            Err(RegistryError::AlreadyPublished(_))
        ));
    }

    #[test]
    fn restart_republish_revokes_old_incarnation() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "ip.pool", Arc::new(1u8))
            .unwrap();
        let old: Arc<u8> = reg.attach_shared("ip.pool").unwrap();
        // The server crashes and its new incarnation republishes.
        reg.publish_shared(ep(1), Generation::FIRST.next(), "ip.pool", Arc::new(2u8))
            .unwrap();
        assert_eq!(
            reg.list("ip."),
            vec![("ip.pool".to_string(), ep(1), Generation::FIRST.next())]
        );
        let v: Arc<u8> = reg.attach_shared("ip.pool").unwrap();
        assert_eq!(*v, 2);
        // An attacher of the old incarnation keeps what it holds.
        assert_eq!(*old, 1);
        // The old generation cannot come back.
        assert!(matches!(
            reg.publish_shared(ep(1), Generation::FIRST, "ip.pool", Arc::new(3u8)),
            Err(RegistryError::AlreadyPublished(_))
        ));
    }

    #[test]
    fn another_endpoint_cannot_hijack_a_name() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "ip.pool", Arc::new(1u8))
            .unwrap();
        // A different creator, even with a newer generation, cannot replace it.
        assert!(matches!(
            reg.publish_shared(ep(9), Generation::FIRST.next(), "ip.pool", Arc::new(2u8)),
            Err(RegistryError::AlreadyPublished(_))
        ));
    }

    #[test]
    fn list_returns_sorted_matches() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "drv.b", Arc::new(0u8))
            .unwrap();
        reg.publish_shared(ep(1), Generation::FIRST, "drv.a", Arc::new(0u8))
            .unwrap();
        reg.publish_shared(ep(2), Generation::FIRST, "ip.x", Arc::new(0u8))
            .unwrap();
        let listed = reg.list("drv.");
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].0, "drv.a");
        assert_eq!(listed[1].0, "drv.b");
    }

    #[test]
    fn revoke_requires_creator() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "x", Arc::new(0u8))
            .unwrap();
        assert!(matches!(
            reg.revoke(ep(2), "x"),
            Err(RegistryError::PermissionDenied { .. })
        ));
        reg.revoke(ep(1), "x").unwrap();
        assert!(!reg.exists("x"));
    }

    #[test]
    fn a_name_of_the_full_capacity_publishes_and_attaches() {
        let reg = Registry::new();
        let name = "sockbuf/tcp/18446744073709551615";
        assert_eq!(name.len(), Name::MAX);
        reg.publish_shared(ep(1), Generation::FIRST, name, Arc::new(5u8))
            .unwrap();
        assert_eq!(*reg.attach_shared::<u8>(name).unwrap(), 5);
        reg.revoke(ep(1), name).unwrap();
        assert!(!reg.exists(name));
    }

    #[test]
    fn a_name_beyond_the_capacity_is_refused() {
        let reg = Registry::new();
        let name = "sockbuf/tcp/18446744073709551615x";
        assert_eq!(name.len(), Name::MAX + 1);
        assert_eq!(
            reg.publish_shared(ep(1), Generation::FIRST, name, Arc::new(0u8)),
            Err(RegistryError::NameTooLong(name.to_string()))
        );
        assert!(!reg.exists(name));
        assert!(reg.list("").is_empty());
        assert!(Name::new(name).is_none());
    }

    #[test]
    fn borrowed_strs_find_inline_keys() {
        let reg = Registry::new();
        let key = Name::new("ring/7/cq").unwrap();
        assert_eq!(key.as_str(), "ring/7/cq");
        reg.publish_shared(ep(1), Generation::FIRST, &key, Arc::new(1u8))
            .unwrap();
        // The lookup key is built on the spot, not the one published.
        let looked_up = format!("ring/{}/cq", 7);
        assert!(reg.exists(&looked_up));
        assert!(reg.attach_shared::<u8>(&looked_up).is_ok());
        assert!(!reg.exists("ring/7/c"));
        assert!(!reg.exists("ring/7/cq/"));
        reg.revoke(ep(1), &looked_up).unwrap();
        assert!(!reg.exists(&key));
    }

    #[test]
    fn listings_and_events_carry_the_full_name() {
        let reg = Registry::new();
        let name = "sockbuf/udp/18446744073709551615";
        reg.publish_shared(ep(1), Generation::FIRST, name, Arc::new(0u8))
            .unwrap();
        reg.revoke(ep(1), name).unwrap();
        reg.publish_shared(ep(1), Generation::FIRST, name, Arc::new(0u8))
            .unwrap();
        assert_eq!(reg.list("sockbuf/")[0].0, name);
    }
}
