//! Synchronous kernel IPC — the slow, trusted path.
//!
//! In a multiserver system the kernel-mediated IPC primitive is what servers
//! fall back to when the fast-path channels cannot be used: setting channels
//! up, delivering interrupts to drivers, and accepting POSIX system calls
//! from applications (paper §V-B).  Every use of it costs a trap into the
//! kernel, and messages that cross to an *idle* core additionally cost an
//! inter-processor interrupt — exactly the overheads the asynchronous
//! channels avoid.
//!
//! [`KernelIpc`] reproduces this primitive between threads and counts what
//! it would cost a real kernel: traps, messages and the IPIs that wake an
//! idle receiver ([`KernelStats`]).  It prices none of them; `table2` does
//! that for the one row it models, with [`CostModel`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use newt_channels::endpoint::Endpoint;
use newt_channels::wake::WakeWord;

use crate::cost::CostModel;

/// A fixed-size kernel IPC message, patterned after the MINIX 3 message
/// layout: a source endpoint, a message type and a small payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// The endpoint that sent the message (filled in by the kernel, so it
    /// can be trusted by the receiver).
    pub source: Endpoint,
    /// Message type, interpreted by the receiving server.
    pub mtype: u32,
    /// Payload words.
    pub payload: [u64; 8],
}

impl Message {
    /// Creates a message of type `mtype` with an all-zero payload.
    pub fn new(mtype: u32) -> Self {
        Message {
            source: Endpoint::from_raw(0),
            mtype,
            payload: [0; 8],
        }
    }

    /// Builder-style helper that sets payload word `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    #[must_use]
    pub fn with_word(mut self, index: usize, value: u64) -> Self {
        self.payload[index] = value;
        self
    }

    /// Returns payload word `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 8`.
    pub fn word(&self, index: usize) -> u64 {
        self.payload[index]
    }
}

/// Errors returned by kernel IPC operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcError {
    /// The destination endpoint was never attached to the kernel.
    UnknownEndpoint(Endpoint),
    /// No message arrived before the timeout expired.
    Timeout,
    /// A non-blocking receive found no pending message.
    WouldBlock,
}

impl std::fmt::Display for IpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpcError::UnknownEndpoint(ep) => {
                write!(f, "endpoint {ep} is not attached to the kernel")
            }
            IpcError::Timeout => write!(f, "timed out waiting for a kernel message"),
            IpcError::WouldBlock => write!(f, "no kernel message pending"),
        }
    }
}

impl std::error::Error for IpcError {}

/// Counters describing kernel involvement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel traps performed (every send and every blocking receive).
    pub traps: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Inter-processor interrupts sent to wake idle destination cores.
    pub ipis: u64,
}

#[derive(Debug, Default)]
struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    /// Whether the owner is currently blocked in `receive` (i.e. its core is
    /// idle and a message needs an IPI to wake it).
    idle: AtomicBool,
    /// The word every delivery writes: a polling service's (see
    /// [`KernelIpc::attach_wake`]), or the one a blocking receive parks on.
    wake: OnceLock<Arc<WakeWord>>,
}

struct KernelInner {
    mailboxes: Mutex<HashMap<Endpoint, Arc<Mailbox>>>,
    traps: AtomicU64,
    messages: AtomicU64,
    ipis: AtomicU64,
}

/// The kernel IPC substrate shared by every server thread.
///
/// Cloning yields another handle to the same kernel.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use newt_channels::endpoint::Endpoint;
/// use newt_kernel::ipc::{KernelIpc, Message};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kernel = KernelIpc::new(Default::default());
/// let app = Endpoint::from_raw(10);
/// let syscall = Endpoint::from_raw(11);
/// kernel.attach(app);
/// kernel.attach(syscall);
///
/// kernel.send(app, syscall, Message::new(42).with_word(0, 7))?;
/// let msg = kernel.receive(syscall, Duration::from_secs(1))?;
/// assert_eq!(msg.mtype, 42);
/// assert_eq!(msg.source, app);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct KernelIpc {
    inner: Arc<KernelInner>,
}

impl std::fmt::Debug for KernelIpc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelIpc")
            .field("endpoints", &self.inner.mailboxes.lock().len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl KernelIpc {
    /// Creates a kernel.  `_model` is unused — the kernel counts traps and
    /// IPIs but prices none of them — and keeps the signature
    /// `benchmark/src/wiring.rs` calls.
    pub fn new(_model: CostModel) -> Self {
        KernelIpc {
            inner: Arc::new(KernelInner {
                mailboxes: Mutex::new(HashMap::new()),
                traps: AtomicU64::new(0),
                messages: AtomicU64::new(0),
                ipis: AtomicU64::new(0),
            }),
        }
    }

    fn count_trap(&self) {
        self.inner.traps.fetch_add(1, Ordering::Relaxed);
    }

    /// Attaches an endpoint, creating its mailbox.  Attaching an endpoint
    /// that already exists keeps its mailbox: messages queued for the
    /// previous incarnation stay queued, because they are still valid
    /// requests the new incarnation can serve.
    pub fn attach(&self, endpoint: Endpoint) {
        self.inner
            .mailboxes
            .lock()
            .entry(endpoint)
            .or_insert_with(|| Arc::new(Mailbox::default()));
    }

    /// Makes every message delivered to `endpoint` also write `wake`: the
    /// owner polls its mailbox with [`KernelIpc::try_receive`] from an event
    /// loop that parks on that word, so a delivery must wake it.  The first
    /// word attached stays for the life of the mailbox (it belongs to the
    /// service, not to one of its incarnations), so attach it before the
    /// endpoint's first blocking receive: attaching another word panics.
    pub fn attach_wake(&self, endpoint: Endpoint, wake: Arc<WakeWord>) {
        self.attach(endpoint);
        if let Ok(mailbox) = self.mailbox(endpoint) {
            let word = mailbox.wake.get_or_init(|| Arc::clone(&wake));
            assert!(
                Arc::ptr_eq(word, &wake),
                "{endpoint:?} has a wake word already"
            );
        }
    }

    fn mailbox(&self, endpoint: Endpoint) -> Result<Arc<Mailbox>, IpcError> {
        self.inner
            .mailboxes
            .lock()
            .get(&endpoint)
            .cloned()
            .ok_or(IpcError::UnknownEndpoint(endpoint))
    }

    /// Sends `message` from `from` to `to`.  This is the kernel trap the
    /// fast-path channels avoid.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::UnknownEndpoint`] when the destination was never
    /// attached.
    pub fn send(&self, from: Endpoint, to: Endpoint, mut message: Message) -> Result<(), IpcError> {
        let mailbox = self.mailbox(to)?;
        self.count_trap();
        message.source = from;
        {
            let mut queue = mailbox.queue.lock();
            queue.push_back(message);
            // Waking an idle destination core requires an IPI.
            if mailbox.idle.load(Ordering::Acquire) {
                self.inner.ipis.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(wake) = mailbox.wake.get() {
            wake.write();
        }
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::WouldBlock`] when no message is pending,
    /// [`IpcError::UnknownEndpoint`] when `me` was never attached.
    pub fn try_receive(&self, me: Endpoint) -> Result<Message, IpcError> {
        let mailbox = self.mailbox(me)?;
        let mut queue = mailbox.queue.lock();
        queue.pop_front().ok_or(IpcError::WouldBlock)
    }

    /// Blocking receive with a timeout.  The caller's core is considered
    /// idle while it waits (so senders pay the IPI cost to wake it).
    ///
    /// # Errors
    ///
    /// Returns [`IpcError::Timeout`] if nothing arrives in time, or
    /// [`IpcError::UnknownEndpoint`] when `me` was never attached.
    pub fn receive(&self, me: Endpoint, timeout: Duration) -> Result<Message, IpcError> {
        self.receive_matching(me, timeout, |_| true)
    }

    /// Blocking receive of the first message whose source is `from`.
    /// Messages from other sources stay queued.
    ///
    /// # Errors
    ///
    /// As [`KernelIpc::receive`].
    pub fn receive_from(
        &self,
        me: Endpoint,
        from: Endpoint,
        timeout: Duration,
    ) -> Result<Message, IpcError> {
        self.receive_matching(me, timeout, |m| m.source == from)
    }

    fn receive_matching<F: Fn(&Message) -> bool>(
        &self,
        me: Endpoint,
        timeout: Duration,
        matches: F,
    ) -> Result<Message, IpcError> {
        let mailbox = self.mailbox(me)?;
        self.count_trap();
        let word = mailbox.wake.get_or_init(Arc::default);
        let deadline = Instant::now() + timeout;
        loop {
            let seen = word.value();
            let mut queue = mailbox.queue.lock();
            if let Some(pos) = queue.iter().position(&matches) {
                return Ok(queue.remove(pos).expect("position found above"));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(IpcError::Timeout);
            }
            mailbox.idle.store(true, Ordering::Release);
            drop(queue);
            word.mwait(seen, deadline - now);
            mailbox.idle.store(false, Ordering::Release);
        }
    }

    /// The synchronous request/reply pattern (`sendrec` in MINIX terms):
    /// sends `message` to `to` and blocks until `to` replies.
    ///
    /// # Errors
    ///
    /// As [`KernelIpc::send`] and [`KernelIpc::receive_from`].
    pub fn sendrec(
        &self,
        from: Endpoint,
        to: Endpoint,
        message: Message,
        timeout: Duration,
    ) -> Result<Message, IpcError> {
        self.send(from, to, message)?;
        self.receive_from(from, to, timeout)
    }

    /// Returns a snapshot of the kernel involvement counters.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            traps: self.inner.traps.load(Ordering::Relaxed),
            messages: self.inner.messages.load(Ordering::Relaxed),
            ipis: self.inner.ipis.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ep(n: u32) -> Endpoint {
        Endpoint::from_raw(n)
    }

    fn kernel() -> KernelIpc {
        KernelIpc::new(CostModel::default())
    }

    #[test]
    fn send_and_receive_round_trip() {
        let k = kernel();
        k.attach(ep(1));
        k.attach(ep(2));
        k.send(ep(1), ep(2), Message::new(5).with_word(0, 99))
            .unwrap();
        let m = k.receive(ep(2), Duration::from_secs(1)).unwrap();
        assert_eq!(m.mtype, 5);
        assert_eq!(m.word(0), 99);
        assert_eq!(m.source, ep(1));
    }

    #[test]
    fn source_is_set_by_kernel_not_sender() {
        let k = kernel();
        k.attach(ep(1));
        k.attach(ep(2));
        // A malicious sender cannot forge the source field.
        let mut forged = Message::new(1);
        forged.source = ep(77);
        k.send(ep(1), ep(2), forged).unwrap();
        let m = k.receive(ep(2), Duration::from_secs(1)).unwrap();
        assert_eq!(m.source, ep(1));
    }

    #[test]
    fn unknown_endpoints_error() {
        let k = kernel();
        k.attach(ep(1));
        assert_eq!(
            k.send(ep(1), ep(9), Message::new(0)).unwrap_err(),
            IpcError::UnknownEndpoint(ep(9))
        );
        assert_eq!(
            k.try_receive(ep(9)).unwrap_err(),
            IpcError::UnknownEndpoint(ep(9))
        );
    }

    #[test]
    fn try_receive_does_not_block() {
        let k = kernel();
        k.attach(ep(1));
        assert_eq!(k.try_receive(ep(1)).unwrap_err(), IpcError::WouldBlock);
    }

    #[test]
    fn receive_times_out() {
        let k = kernel();
        k.attach(ep(1));
        let start = Instant::now();
        assert_eq!(
            k.receive(ep(1), Duration::from_millis(30)).unwrap_err(),
            IpcError::Timeout
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn receive_from_filters_sources() {
        let k = kernel();
        for i in 1..=3 {
            k.attach(ep(i));
        }
        k.send(ep(1), ep(3), Message::new(1)).unwrap();
        k.send(ep(2), ep(3), Message::new(2)).unwrap();
        let m = k
            .receive_from(ep(3), ep(2), Duration::from_secs(1))
            .unwrap();
        assert_eq!(m.mtype, 2);
        // The other message is still pending.
        assert_eq!(k.try_receive(ep(3)).unwrap().mtype, 1);
        assert_eq!(k.try_receive(ep(3)).unwrap_err(), IpcError::WouldBlock);
    }

    #[test]
    fn sendrec_round_trip_across_threads() {
        let k = kernel();
        let client = ep(1);
        let server = ep(2);
        k.attach(client);
        k.attach(server);
        let k_server = k.clone();
        let handle = thread::spawn(move || {
            let req = k_server.receive(server, Duration::from_secs(5)).unwrap();
            let reply = Message::new(req.mtype + 1).with_word(0, req.word(0) * 2);
            k_server.send(server, req.source, reply).unwrap();
        });
        let reply = k
            .sendrec(
                client,
                server,
                Message::new(10).with_word(0, 21),
                Duration::from_secs(5),
            )
            .unwrap();
        assert_eq!(reply.mtype, 11);
        assert_eq!(reply.word(0), 42);
        handle.join().unwrap();
    }

    #[test]
    fn idle_receiver_costs_an_ipi() {
        let k = kernel();
        k.attach(ep(1));
        k.attach(ep(2));
        let k2 = k.clone();
        let handle = thread::spawn(move || k2.receive(ep(2), Duration::from_secs(5)));
        // Give the receiver time to block (become idle).
        thread::sleep(Duration::from_millis(30));
        k.send(ep(1), ep(2), Message::new(7)).unwrap();
        handle.join().unwrap().unwrap();
        let stats = k.stats();
        assert!(stats.ipis >= 1, "expected at least one IPI, got {stats:?}");
    }

    /// The receiver parks on its mailbox's word, made by its first blocking
    /// receive; no round sleeps, so the send lands before, during and after
    /// that.
    #[test]
    fn a_send_racing_a_blocking_receive_is_never_lost() {
        for round in 0..1000 {
            let k = kernel();
            k.attach(ep(1));
            k.attach(ep(2));
            let started = Instant::now();
            thread::scope(|s| {
                let receiver = s.spawn(|| k.receive(ep(2), Duration::from_secs(5)));
                k.send(ep(1), ep(2), Message::new(round)).unwrap();
                let got = receiver.join().unwrap().map(|m| m.mtype);
                assert_eq!(got, Ok(round), "round {round}");
            });
            // After a lost wake-up the receive finds the message at its
            // deadline, so only the time shows it.
            assert!(
                started.elapsed() < Duration::from_millis(2500),
                "round {round}"
            );
        }
    }

    /// The service's word wins only if it comes first: attached after a
    /// blocking receive made the mailbox its own, it would never be
    /// written, so the attach fails loudly.  Attaching the same word again
    /// (a new incarnation) is fine.
    #[test]
    fn a_wake_word_attached_after_a_blocking_receive_is_refused() {
        let k = kernel();
        let word = Arc::new(WakeWord::new());
        k.attach_wake(ep(1), Arc::clone(&word));
        k.attach_wake(ep(1), word);
        k.attach(ep(2));
        let _ = k.receive(ep(2), Duration::ZERO);
        let late = std::panic::catch_unwind(|| k.attach_wake(ep(2), Arc::default()));
        assert!(late.is_err());
    }

    #[test]
    fn stats_count_traps_and_messages() {
        let k = kernel();
        k.attach(ep(1));
        k.attach(ep(2));
        k.send(ep(1), ep(2), Message::new(0)).unwrap();
        k.receive(ep(2), Duration::from_secs(1)).unwrap();
        let stats = k.stats();
        assert_eq!(stats.messages, 1);
        assert!(stats.traps >= 2); // one for the send, one for the receive
    }

    #[test]
    fn reattach_keeps_pending_requests() {
        let k = kernel();
        k.attach(ep(1));
        k.attach(ep(2));
        k.send(ep(1), ep(2), Message::new(1)).unwrap();
        // The server crashes and its new incarnation attaches again: the
        // queued request is still valid and stays available.
        k.attach(ep(2));
        assert_eq!(k.try_receive(ep(2)).unwrap().mtype, 1);
    }
}
