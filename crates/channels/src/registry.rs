//! Channel and pool management: publish, subscribe, export and attach.
//!
//! There is no global manager in the system — servers set their channels up
//! themselves (paper §IV-C).  When a server starts it announces its presence
//! through a publish/subscribe mechanism; peers subscribed to the published
//! event can then export their channels to the newly started server.  A
//! channel is identified by its creator and a unique name, and the creator
//! may grant or deny export requests.
//!
//! The [`Registry`] is the in-process stand-in for the trusted third party of
//! §IV-A (the virtual memory manager): only the creator of an object can make
//! it available, and an attacher only obtains what it was granted.
//!
//! Two flavours of publication are offered:
//!
//! * **shared** objects ([`Registry::publish_shared`]) such as pool readers —
//!   any number of granted servers may attach and all receive a handle to the
//!   same object;
//! * **offered** objects ([`Registry::offer`]) such as the single receive end
//!   of an SPSC queue — exactly one granted server may claim it, after which
//!   it is gone from the registry.
//!
//! When a server crashes and restarts, it republishes its channels under the
//! same names with a bumped [`Generation`]; subscribers receive a
//! [`EventKind::Revoked`] event for the old incarnation followed by
//! [`EventKind::Published`] for the new one and must re-attach (paper §IV-D).

use std::any::Any;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Who may attach to a published object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Any endpoint may attach.
    Public,
    /// Only the listed endpoints may attach.
    Granted(Vec<Endpoint>),
}

impl Access {
    fn allows(&self, requester: Endpoint) -> bool {
        match self {
            Access::Public => true,
            Access::Granted(list) => list.contains(&requester),
        }
    }
}

/// The kind of a registry event delivered to subscribers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A new object (or a new incarnation of an object) became available.
    Published,
    /// An object was withdrawn, typically because its creator crashed.
    Revoked,
}

/// An event delivered to a [`Subscription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelEvent {
    /// Name the object was published under.
    pub name: String,
    /// The endpoint that created the object.
    pub creator: Endpoint,
    /// The creator's generation at publication time.
    pub generation: Generation,
    /// Whether the object appeared or disappeared.
    pub kind: EventKind,
}

enum Stored {
    Shared(Arc<dyn Any + Send + Sync>),
    Offered(Option<Box<dyn Any + Send>>),
}

impl fmt::Debug for Stored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stored::Shared(_) => write!(f, "Stored::Shared"),
            Stored::Offered(Some(_)) => write!(f, "Stored::Offered(available)"),
            Stored::Offered(None) => write!(f, "Stored::Offered(claimed)"),
        }
    }
}

#[derive(Debug)]
struct Entry {
    creator: Endpoint,
    generation: Generation,
    access: Access,
    stored: Stored,
}

#[derive(Debug, Default)]
struct SubscriberSlot {
    id: u64,
    prefix: String,
    queue: Vec<ChannelEvent>,
}

#[derive(Default)]
struct RegistryInner {
    entries: Mutex<HashMap<Name, Entry>>,
    subscribers: Mutex<Vec<SubscriberSlot>>,
    next_subscriber: AtomicU64,
}

/// The publish/subscribe broker for channels and pools.
///
/// Cloning a `Registry` is cheap and yields a handle to the same broker.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use newt_channels::endpoint::{Endpoint, Generation};
/// use newt_channels::registry::{Access, Registry};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let registry = Registry::new();
/// let ip = Endpoint::from_raw(3);
/// let tcp = Endpoint::from_raw(4);
///
/// registry.publish_shared(ip, Generation::FIRST, "ip.rx-pool", Access::Public,
///                         Arc::new("pretend this is a pool reader".to_string()))?;
/// let pool: Arc<String> = registry.attach_shared(tcp, "ip.rx-pool")?;
/// assert!(pool.contains("pool reader"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let entries = self.inner.entries.lock();
        f.debug_struct("Registry")
            .field("published", &entries.len())
            .finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner::default()),
        }
    }

    /// Creates an empty registry pre-sized for roughly `entries` published
    /// names.  A sharded stack publishes a socket buffer per socket per
    /// replica; sizing the table up front keeps the publish path from
    /// rehashing under load.
    pub fn with_capacity(entries: usize) -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                entries: Mutex::new(HashMap::with_capacity(entries)),
                subscribers: Mutex::new(Vec::new()),
                next_subscriber: AtomicU64::new(0),
            }),
        }
    }

    /// Queues an event for every subscriber whose prefix matches `name`;
    /// with nobody listening (the per-socket publications of the data
    /// path) nothing is built.
    fn notify(&self, name: &str, creator: Endpoint, generation: Generation, kind: EventKind) {
        let mut subs = self.inner.subscribers.lock();
        for sub in subs.iter_mut() {
            if name.starts_with(&sub.prefix) {
                sub.queue.push(ChannelEvent {
                    name: name.to_string(),
                    creator,
                    generation,
                    kind,
                });
            }
        }
    }

    fn insert(
        &self,
        creator: Endpoint,
        generation: Generation,
        name: &str,
        access: Access,
        stored: Stored,
    ) -> Result<(), RegistryError> {
        let key = Name::new(name).ok_or_else(|| RegistryError::NameTooLong(name.to_string()))?;
        let entry = Entry {
            creator,
            generation,
            access,
            stored,
        };
        {
            let mut entries = self.inner.entries.lock();
            if let Some(existing) = entries.get(name) {
                let newer = existing.generation.is_stale_relative_to(generation)
                    && existing.creator == creator;
                if !newer {
                    return Err(RegistryError::AlreadyPublished(name.to_string()));
                }
                // The creator restarted: revoke the stale incarnation first.
                let (old_creator, old_generation) = (existing.creator, existing.generation);
                entries.remove(name);
                drop(entries);
                self.notify(name, old_creator, old_generation, EventKind::Revoked);
                self.inner.entries.lock().insert(key, entry);
            } else {
                entries.insert(key, entry);
            }
        }
        self.notify(name, creator, generation, EventKind::Published);
        Ok(())
    }

    /// Publishes a shared object (e.g. a pool reader) under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::AlreadyPublished`] if an object of the same
    /// or a newer generation already exists under this name, and
    /// [`RegistryError::NameTooLong`] if `name` has more than [`Name::MAX`]
    /// bytes.
    pub fn publish_shared<T: Send + Sync + 'static>(
        &self,
        creator: Endpoint,
        generation: Generation,
        name: &str,
        access: Access,
        object: Arc<T>,
    ) -> Result<(), RegistryError> {
        self.insert(creator, generation, name, access, Stored::Shared(object))
    }

    /// Offers an object for exactly one consumer to claim (e.g. one end of an
    /// SPSC queue).
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::AlreadyPublished`] if an object of the same
    /// or a newer generation already exists under this name, and
    /// [`RegistryError::NameTooLong`] if `name` has more than [`Name::MAX`]
    /// bytes.
    pub fn offer<T: Send + 'static>(
        &self,
        creator: Endpoint,
        generation: Generation,
        name: &str,
        access: Access,
        object: T,
    ) -> Result<(), RegistryError> {
        self.insert(
            creator,
            generation,
            name,
            access,
            Stored::Offered(Some(Box::new(object))),
        )
    }

    /// Attaches to a shared object published under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownName`] if nothing is published,
    /// [`RegistryError::PermissionDenied`] if the requester was not granted
    /// access and [`RegistryError::TypeMismatch`] if the stored object has a
    /// different type.
    pub fn attach_shared<T: Send + Sync + 'static>(
        &self,
        requester: Endpoint,
        name: &str,
    ) -> Result<Arc<T>, RegistryError> {
        let entries = self.inner.entries.lock();
        let entry = entries
            .get(name)
            .ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
        if !entry.access.allows(requester) {
            return Err(RegistryError::PermissionDenied {
                name: name.to_string(),
                requester,
            });
        }
        match &entry.stored {
            Stored::Shared(any) => Arc::clone(any)
                .downcast::<T>()
                .map_err(|_| RegistryError::TypeMismatch(name.to_string())),
            Stored::Offered(_) => Err(RegistryError::TypeMismatch(name.to_string())),
        }
    }

    /// Claims an offered object, transferring ownership to the requester.
    ///
    /// # Errors
    ///
    /// As [`Registry::attach_shared`]; additionally returns
    /// [`RegistryError::Revoked`] if the object was already claimed.
    pub fn claim<T: Send + 'static>(
        &self,
        requester: Endpoint,
        name: &str,
    ) -> Result<T, RegistryError> {
        let mut entries = self.inner.entries.lock();
        let entry = entries
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
        if !entry.access.allows(requester) {
            return Err(RegistryError::PermissionDenied {
                name: name.to_string(),
                requester,
            });
        }
        match &mut entry.stored {
            Stored::Offered(slot) => {
                let boxed = slot.take().ok_or(RegistryError::Revoked {
                    name: name.to_string(),
                    generation: entry.generation,
                })?;
                match boxed.downcast::<T>() {
                    Ok(v) => Ok(*v),
                    Err(original) => {
                        // Put it back; the type did not match.
                        *slot = Some(original);
                        Err(RegistryError::TypeMismatch(name.to_string()))
                    }
                }
            }
            Stored::Shared(_) => Err(RegistryError::TypeMismatch(name.to_string())),
        }
    }

    /// Grants `to` access to the object published under `name`.  Only the
    /// creator may grant access.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownName`] or
    /// [`RegistryError::PermissionDenied`] (when `granter` is not the
    /// creator).
    pub fn grant(&self, granter: Endpoint, name: &str, to: Endpoint) -> Result<(), RegistryError> {
        let mut entries = self.inner.entries.lock();
        let entry = entries
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
        if entry.creator != granter {
            return Err(RegistryError::PermissionDenied {
                name: name.to_string(),
                requester: granter,
            });
        }
        match &mut entry.access {
            Access::Public => {}
            Access::Granted(list) => {
                if !list.contains(&to) {
                    list.push(to);
                }
            }
        }
        Ok(())
    }

    /// Withdraws a publication.  Only the creator (any generation) may
    /// revoke.  Subscribers are notified.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownName`] or
    /// [`RegistryError::PermissionDenied`].
    pub fn revoke(&self, revoker: Endpoint, name: &str) -> Result<(), RegistryError> {
        let generation = {
            let mut entries = self.inner.entries.lock();
            let entry = entries
                .get(name)
                .ok_or_else(|| RegistryError::UnknownName(name.to_string()))?;
            if entry.creator != revoker {
                return Err(RegistryError::PermissionDenied {
                    name: name.to_string(),
                    requester: revoker,
                });
            }
            let generation = entry.generation;
            entries.remove(name);
            generation
        };
        self.notify(name, revoker, generation, EventKind::Revoked);
        Ok(())
    }

    /// Revokes every publication made by `creator` (used by the
    /// reincarnation server when it reaps a crashed component).  Returns the
    /// names that were withdrawn.
    pub fn revoke_all_from(&self, creator: Endpoint) -> Vec<String> {
        let revoked: Vec<(Name, Generation)> = {
            let mut entries = self.inner.entries.lock();
            let names: Vec<Name> = entries
                .iter()
                .filter(|(_, e)| e.creator == creator)
                .map(|(n, _)| *n)
                .collect();
            names
                .into_iter()
                .map(|name| {
                    let entry = entries.remove(&name).expect("name collected above");
                    (name, entry.generation)
                })
                .collect()
        };
        for (name, generation) in &revoked {
            self.notify(name, creator, *generation, EventKind::Revoked);
        }
        revoked.iter().map(|(name, _)| name.to_string()).collect()
    }

    /// Returns `true` if something is currently published under `name`.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.entries.lock().contains_key(name)
    }

    /// Lists publications whose name starts with `prefix`.
    pub fn list(&self, prefix: &str) -> Vec<(String, Endpoint, Generation)> {
        let entries = self.inner.entries.lock();
        let mut out: Vec<(String, Endpoint, Generation)> = entries
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, e)| (name.to_string(), e.creator, e.generation))
            .collect();
        out.sort();
        out
    }

    /// Subscribes to publication/revocation events for names starting with
    /// `prefix`.
    pub fn subscribe(&self, prefix: &str) -> Subscription {
        let id = self.inner.next_subscriber.fetch_add(1, Ordering::Relaxed);
        self.inner.subscribers.lock().push(SubscriberSlot {
            id,
            prefix: prefix.to_string(),
            queue: Vec::new(),
        });
        Subscription {
            id,
            inner: Arc::clone(&self.inner),
        }
    }
}

/// A subscription to registry events, created by [`Registry::subscribe`].
pub struct Subscription {
    id: u64,
    inner: Arc<RegistryInner>,
}

impl fmt::Debug for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .finish()
    }
}

impl Subscription {
    /// Drains the events accumulated since the last poll.
    pub fn poll(&self) -> Vec<ChannelEvent> {
        let mut subs = self.inner.subscribers.lock();
        subs.iter_mut()
            .find(|s| s.id == self.id)
            .map(|s| std::mem::take(&mut s.queue))
            .unwrap_or_default()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.inner.subscribers.lock().retain(|s| s.id != self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spsc;

    fn ep(n: u32) -> Endpoint {
        Endpoint::from_raw(n)
    }

    #[test]
    fn shared_publish_and_attach() {
        let reg = Registry::new();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "ip.pool",
            Access::Public,
            Arc::new(42u64),
        )
        .unwrap();
        let v: Arc<u64> = reg.attach_shared(ep(2), "ip.pool").unwrap();
        assert_eq!(*v, 42);
        assert!(reg.exists("ip.pool"));
    }

    #[test]
    fn unknown_name_and_type_mismatch() {
        let reg = Registry::new();
        assert!(matches!(
            reg.attach_shared::<u64>(ep(2), "nope"),
            Err(RegistryError::UnknownName(_))
        ));
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "x",
            Access::Public,
            Arc::new(1u32),
        )
        .unwrap();
        assert!(matches!(
            reg.attach_shared::<String>(ep(2), "x"),
            Err(RegistryError::TypeMismatch(_))
        ));
    }

    #[test]
    fn access_control_enforced_and_grantable() {
        let reg = Registry::new();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "tcp.queue",
            Access::Granted(vec![ep(2)]),
            Arc::new("secret".to_string()),
        )
        .unwrap();
        assert!(reg.attach_shared::<String>(ep(2), "tcp.queue").is_ok());
        assert!(matches!(
            reg.attach_shared::<String>(ep(3), "tcp.queue"),
            Err(RegistryError::PermissionDenied { .. })
        ));
        // Only the creator may grant.
        assert!(matches!(
            reg.grant(ep(2), "tcp.queue", ep(3)),
            Err(RegistryError::PermissionDenied { .. })
        ));
        reg.grant(ep(1), "tcp.queue", ep(3)).unwrap();
        assert!(reg.attach_shared::<String>(ep(3), "tcp.queue").is_ok());
    }

    #[test]
    fn offered_queue_end_is_claimed_once() {
        let reg = Registry::new();
        let (mut tx, rx) = spsc::channel::<u32>(4);
        reg.offer(ep(1), Generation::FIRST, "ip->tcp.rx", Access::Public, rx)
            .unwrap();
        let mut rx: spsc::Receiver<u32> = reg.claim(ep(2), "ip->tcp.rx").unwrap();
        tx.try_send(5).unwrap();
        assert_eq!(rx.try_recv().unwrap(), 5);
        // Second claim fails: already taken.
        assert!(matches!(
            reg.claim::<spsc::Receiver<u32>>(ep(3), "ip->tcp.rx"),
            Err(RegistryError::Revoked { .. })
        ));
    }

    #[test]
    fn claim_with_wrong_type_keeps_object_available() {
        let reg = Registry::new();
        reg.offer(ep(1), Generation::FIRST, "thing", Access::Public, 7u8)
            .unwrap();
        assert!(matches!(
            reg.claim::<String>(ep(2), "thing"),
            Err(RegistryError::TypeMismatch(_))
        ));
        // Still claimable with the correct type.
        assert_eq!(reg.claim::<u8>(ep(2), "thing").unwrap(), 7);
    }

    #[test]
    fn duplicate_publish_same_generation_rejected() {
        let reg = Registry::new();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "dup",
            Access::Public,
            Arc::new(1u8),
        )
        .unwrap();
        assert!(matches!(
            reg.publish_shared(
                ep(1),
                Generation::FIRST,
                "dup",
                Access::Public,
                Arc::new(2u8)
            ),
            Err(RegistryError::AlreadyPublished(_))
        ));
    }

    #[test]
    fn restart_republish_revokes_old_incarnation() {
        let reg = Registry::new();
        let sub = reg.subscribe("ip.");
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "ip.pool",
            Access::Public,
            Arc::new(1u8),
        )
        .unwrap();
        // The server crashes and its new incarnation republishes.
        reg.publish_shared(
            ep(1),
            Generation::FIRST.next(),
            "ip.pool",
            Access::Public,
            Arc::new(2u8),
        )
        .unwrap();
        let events = sub.poll();
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Published,
                EventKind::Revoked,
                EventKind::Published
            ]
        );
        let v: Arc<u8> = reg.attach_shared(ep(2), "ip.pool").unwrap();
        assert_eq!(*v, 2);
    }

    #[test]
    fn another_endpoint_cannot_hijack_a_name() {
        let reg = Registry::new();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "ip.pool",
            Access::Public,
            Arc::new(1u8),
        )
        .unwrap();
        // A different creator, even with a newer generation, cannot replace it.
        assert!(matches!(
            reg.publish_shared(
                ep(9),
                Generation::FIRST.next(),
                "ip.pool",
                Access::Public,
                Arc::new(2u8)
            ),
            Err(RegistryError::AlreadyPublished(_))
        ));
    }

    #[test]
    fn subscription_filters_by_prefix() {
        let reg = Registry::new();
        let sub = reg.subscribe("tcp.");
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "tcp.a",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "udp.b",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        let events = sub.poll();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "tcp.a");
        // Polling again returns nothing new.
        assert!(sub.poll().is_empty());
    }

    #[test]
    fn revoke_all_from_withdraws_everything_of_a_crashed_server() {
        let reg = Registry::new();
        let sub = reg.subscribe("");
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "ip.a",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "ip.b",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        reg.publish_shared(
            ep(2),
            Generation::FIRST,
            "tcp.c",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        sub.poll();
        let mut revoked = reg.revoke_all_from(ep(1));
        revoked.sort();
        assert_eq!(revoked, vec!["ip.a".to_string(), "ip.b".to_string()]);
        assert!(reg.exists("tcp.c"));
        let events = sub.poll();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|e| e.kind == EventKind::Revoked));
    }

    #[test]
    fn list_returns_sorted_matches() {
        let reg = Registry::new();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "drv.b",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            "drv.a",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        reg.publish_shared(
            ep(2),
            Generation::FIRST,
            "ip.x",
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        let listed = reg.list("drv.");
        assert_eq!(listed.len(), 2);
        assert_eq!(listed[0].0, "drv.a");
        assert_eq!(listed[1].0, "drv.b");
    }

    #[test]
    fn revoke_requires_creator() {
        let reg = Registry::new();
        reg.publish_shared(ep(1), Generation::FIRST, "x", Access::Public, Arc::new(0u8))
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
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            name,
            Access::Public,
            Arc::new(5u8),
        )
        .unwrap();
        assert_eq!(*reg.attach_shared::<u8>(ep(2), name).unwrap(), 5);
        reg.revoke(ep(1), name).unwrap();
        assert!(!reg.exists(name));
    }

    #[test]
    fn a_name_beyond_the_capacity_is_refused() {
        let reg = Registry::new();
        let name = "sockbuf/tcp/18446744073709551615x";
        assert_eq!(name.len(), Name::MAX + 1);
        assert_eq!(
            reg.publish_shared(
                ep(1),
                Generation::FIRST,
                name,
                Access::Public,
                Arc::new(0u8)
            ),
            Err(RegistryError::NameTooLong(name.to_string()))
        );
        assert!(matches!(
            reg.offer(ep(1), Generation::FIRST, name, Access::Public, 0u8),
            Err(RegistryError::NameTooLong(_))
        ));
        assert!(!reg.exists(name));
        assert!(reg.list("").is_empty());
        assert!(Name::new(name).is_none());
    }

    #[test]
    fn borrowed_strs_find_inline_keys() {
        let reg = Registry::new();
        let key = Name::new("ring/7/cq").unwrap();
        assert_eq!(key.as_str(), "ring/7/cq");
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            &key,
            Access::Public,
            Arc::new(1u8),
        )
        .unwrap();
        // The lookup key is built on the spot, not the one published.
        let looked_up = format!("ring/{}/cq", 7);
        assert!(reg.exists(&looked_up));
        assert!(reg.attach_shared::<u8>(ep(2), &looked_up).is_ok());
        assert!(!reg.exists("ring/7/c"));
        assert!(!reg.exists("ring/7/cq/"));
        reg.revoke(ep(1), &looked_up).unwrap();
        assert!(!reg.exists(&key));
    }

    #[test]
    fn listings_and_events_carry_the_full_name() {
        let reg = Registry::new();
        let sub = reg.subscribe("sockbuf/udp/");
        let name = "sockbuf/udp/18446744073709551615";
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            name,
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        reg.revoke_all_from(ep(1));
        let listed: Vec<String> = sub.poll().into_iter().map(|e| e.name).collect();
        assert_eq!(listed, vec![name.to_string(), name.to_string()]);
        reg.publish_shared(
            ep(1),
            Generation::FIRST,
            name,
            Access::Public,
            Arc::new(0u8),
        )
        .unwrap();
        assert_eq!(reg.list("sockbuf/")[0].0, name);
    }
}
