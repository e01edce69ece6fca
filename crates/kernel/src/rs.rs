//! The reincarnation server.
//!
//! All system servers are children of the reincarnation server, which
//! receives a signal when a server crashes and resets servers that stop
//! responding to periodic heartbeats (paper §V-D, following MINIX 3).  A
//! restarted server is told whether it starts *fresh* or in *restart* mode so
//! that it knows to recover its state from the storage server; its restart
//! *generation* is bumped so that peers can tell stale channel exports and
//! replies apart from current ones.
//!
//! Each managed service runs as a dedicated thread (standing in for a
//! dedicated core).  The service body is a closure invoked anew for every
//! incarnation; it receives a [`ServiceRuntime`] through which it
//! heartbeats, learns its start mode and observes injected faults (the hook
//! used by the `newt-faults` crate to reproduce the paper's SWIFI
//! experiments).
//!
//! Each service owns one [`WakeWord`] that outlives its incarnations
//! ([`ServiceRuntime::wake_word`]).  An idle body parks on it; every control
//! signal the reincarnation server raises — stop, live update, an armed
//! fault, a reap — is followed by a write to the word, so a parked service
//! reacts at once.  A parked body must still wake to heartbeat within its
//! timeout.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use newt_channels::endpoint::{Endpoint, Generation};
use newt_channels::wake::{WakeWord, MAX_PARK};

use crate::clock::SimClock;

/// Whether an incarnation is the first one or a restart after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartMode {
    /// First start: initialise from scratch.
    Fresh,
    /// Restarted after a crash (or a live update whose predecessor handed
    /// over no state): recover what survives from the storage server.
    Restart,
    /// Replacement incarnation of a live update: the predecessor quiesced
    /// and handed over a [`StateSnapshot`]; restore from it instead of the
    /// storage server's lossy summaries.
    LiveUpdate,
}

/// A fault armed against a service, observed at its next fault check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault pending.
    None,
    /// The service panics (a crash the reincarnation server detects through
    /// the exit signal).
    Crash,
    /// The service stops making progress and stops heartbeating (detected by
    /// the heartbeat watchdog).
    Hang,
}

/// Why a service incarnation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashReason {
    /// The service panicked (crash signal).
    Panicked,
    /// The service's body returned even though it was not asked to stop.
    ExitedUnexpectedly,
    /// The service stopped responding to heartbeats and was reaped.
    HeartbeatTimeout,
}

/// Lifecycle state of a managed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceStatus {
    /// The current incarnation is running.
    Running,
    /// A crash was detected and a new incarnation is being started.
    Restarting,
    /// The service was stopped deliberately.
    Stopped,
    /// The service exceeded its restart budget and was given up on.
    Failed,
}

/// A crash (and possible restart) observed by the reincarnation server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashEvent {
    /// Service name.
    pub name: String,
    /// Service endpoint.
    pub endpoint: Endpoint,
    /// Generation of the incarnation that died.
    pub generation: Generation,
    /// Why the incarnation ended.
    pub reason: CrashReason,
    /// Whether a new incarnation is being started.
    pub restarting: bool,
    /// Virtual time at which the crash was *detected* (exit signal observed
    /// or heartbeat watchdog fired).  For a hang this includes the full
    /// heartbeat-timeout detection latency; the fault-injection campaign
    /// subtracts its injection timestamp from this to report
    /// time-to-detect.
    pub at: Duration,
}

/// Virtual-time stamps of a service's most recent restart, exposed so the
/// dependability campaign can report recovery latency without instrumenting
/// the services themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryStamp {
    /// When the crash (or live-update request) was detected.
    pub detected_at: Duration,
    /// When the replacement incarnation's thread was spawned.  State
    /// recovery from the storage server happens inside the new incarnation
    /// right after this point.
    pub respawned_at: Duration,
    /// `true` when the restart was *requested* ([`ReincarnationServer::live_update`]
    /// / [`ReincarnationServer::force_restart`]) rather than detected: the
    /// `detected_at` stamp is then the request time and detection latency is
    /// by definition ~0.
    pub requested: bool,
}

/// Versioned hot state a quiescing incarnation hands to the reincarnation
/// server during a live update, restored by the replacement incarnation.
///
/// The payload is opaque to the reincarnation server; each component defines
/// its own wire format and bumps its `version` whenever that format changes.
/// A replacement incarnation must validate the tag with
/// [`StateSnapshot::accepts`] before decoding — a component name or version
/// mismatch means the snapshot was produced by an incompatible predecessor
/// and the incarnation falls back to crash-style recovery from the storage
/// server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSnapshot {
    /// Service name of the component that produced the snapshot.
    pub component: String,
    /// Component-defined wire-format version of the payload.
    pub version: u32,
    /// Generation of the incarnation that produced the snapshot.
    pub generation: Generation,
    /// Virtual time at which the state was exported.
    pub taken_at: Duration,
    /// The serialized hot state.
    pub payload: Vec<u8>,
}

impl StateSnapshot {
    /// Returns `true` when the snapshot was produced by `component` in wire
    /// format `version` — the validation every replacement incarnation
    /// performs before restoring.
    pub fn accepts(&self, component: &str, version: u32) -> bool {
        self.component == component && self.version == version
    }
}

/// Static configuration of a managed service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Human-readable service name.
    pub name: String,
    /// Virtual-time heartbeat timeout after which the service is considered
    /// hung.
    pub heartbeat_timeout: Duration,
    /// Maximum number of crash restarts before giving up.  Requested
    /// replacements (live updates, forced restarts) do not count.
    pub max_restarts: u32,
}

impl ServiceConfig {
    /// Creates a configuration with the defaults used throughout the stack:
    /// a 2-second (virtual) heartbeat timeout and a budget of 32 restarts.
    pub fn new(name: &str) -> Self {
        ServiceConfig {
            name: name.to_string(),
            heartbeat_timeout: Duration::from_secs(2),
            max_restarts: 32,
        }
    }

    /// Sets the heartbeat timeout.
    #[must_use]
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.heartbeat_timeout = timeout;
        self
    }

    /// Sets the restart budget.
    #[must_use]
    pub fn max_restarts(mut self, max: u32) -> Self {
        self.max_restarts = max;
        self
    }
}

#[derive(Debug)]
struct ServiceShared {
    name: String,
    endpoint: Endpoint,
    generation: AtomicU32,
    stop: AtomicBool,
    reap: AtomicBool,
    /// A live update is in progress: quiesce and hand over instead of just
    /// stopping.
    update: AtomicBool,
    /// The hand-over slot: the quiescing incarnation deposits its snapshot
    /// here; the replacement takes it.
    snapshot: Mutex<Option<StateSnapshot>>,
    start_mode: Mutex<StartMode>,
    fault: Mutex<FaultAction>,
    last_heartbeat: Mutex<Duration>,
    /// The current incarnation has come through its first heartbeat: it
    /// has built and recovered its state and is serving.  Set (`Release`)
    /// by `heartbeat`, read (`Acquire`) by `wait_until_running`, so a
    /// waiter that sees it also sees what recovery wrote; cleared by
    /// `spawn_incarnation`.
    beating: AtomicBool,
    /// Written when `beating` turns true; what `wait_until_running` parks
    /// on.  A word of its own, so the service's body is not woken by it.
    started: WakeWord,
    /// Virtual time without a heartbeat after which the watchdog reaps.
    heartbeat_timeout: Duration,
    clock: SimClock,
    /// Written after every control signal above changes.
    wake: Arc<WakeWord>,
}

/// Handle handed to a service body, used to heartbeat and observe control
/// signals from the reincarnation server.
#[derive(Debug, Clone)]
pub struct ServiceRuntime {
    shared: Arc<ServiceShared>,
}

impl ServiceRuntime {
    /// Returns the service name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Returns the service endpoint.
    pub fn endpoint(&self) -> Endpoint {
        self.shared.endpoint
    }

    /// Returns the service's wake word: the word an idle body parks on, and
    /// the one the reincarnation server writes after raising any control
    /// signal.  It is the same word for every incarnation of the service.
    pub fn wake_word(&self) -> &Arc<WakeWord> {
        &self.shared.wake
    }

    /// Parks an idle body on the service's wake word until the word moves
    /// on from `seen` (read *before* the body last looked for work, so a
    /// write since then ends the park at once), the stack-clock time
    /// `until` comes, or the next heartbeat is due — a quarter of the
    /// heartbeat timeout, so a parked service is never mistaken for a hung
    /// one.  Returns `true` if a write ended the park.  The caller
    /// heartbeats and looks for work again either way.
    pub fn park(&self, seen: u64, until: Option<Duration>) -> bool {
        let clock = &self.shared.clock;
        let heartbeat = clock
            .to_real(self.shared.heartbeat_timeout / 4)
            .min(MAX_PARK);
        let timeout = until.map_or(heartbeat, |at| {
            clock.to_real(at.saturating_sub(clock.now())).min(heartbeat)
        });
        self.shared.wake.mwait(seen, timeout) != seen
    }

    /// Returns the start mode of this incarnation.
    pub fn start_mode(&self) -> StartMode {
        *self.shared.start_mode.lock()
    }

    /// Returns the generation of this incarnation.
    pub fn generation(&self) -> Generation {
        Generation::from_raw(self.shared.generation.load(Ordering::Acquire))
    }

    /// Returns `true` when the reincarnation server asked the service to
    /// stop (graceful shutdown or live update).
    pub fn should_stop(&self) -> bool {
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Returns `true` when a live update was requested: the service should
    /// quiesce (drain in-flight work to a message boundary), export its hot
    /// state through [`ServiceRuntime::hand_over`] and return.
    ///
    /// `should_stop` is also raised during a live update, so bodies that
    /// predate the hand-over protocol still wind down — they just hand over
    /// nothing and their replacement recovers crash-style.
    pub fn update_requested(&self) -> bool {
        self.shared.update.load(Ordering::Acquire)
    }

    /// Deposits this incarnation's hot state for the replacement incarnation
    /// (the state-transfer phase of a live update).  The reincarnation server
    /// wraps the payload in a [`StateSnapshot`] tagged with the service name,
    /// the caller's `version` and the current generation.
    pub fn hand_over(&self, version: u32, payload: Vec<u8>) {
        let snapshot = StateSnapshot {
            component: self.shared.name.clone(),
            version,
            generation: Generation::from_raw(self.shared.generation.load(Ordering::Acquire)),
            taken_at: self.shared.clock.now(),
            payload,
        };
        *self.shared.snapshot.lock() = Some(snapshot);
    }

    /// Takes the predecessor's snapshot, if one was handed over.  Called by a
    /// replacement incarnation that starts in [`StartMode::LiveUpdate`].
    pub fn take_snapshot(&self) -> Option<StateSnapshot> {
        self.shared.snapshot.lock().take()
    }

    /// Records a heartbeat and honours any fault armed against the service.
    ///
    /// Service bodies call this once per event-loop iteration.  If a
    /// [`FaultAction::Crash`] is armed the call panics (the crash the
    /// reincarnation server then observes); a [`FaultAction::Hang`] makes the
    /// call stop returning — and stop heartbeating — until the watchdog reaps
    /// the service.
    ///
    /// # Panics
    ///
    /// Panics when a crash fault is armed or when the watchdog reaps a hung
    /// service; the panic is the simulated crash and is caught by the
    /// service thread wrapper.
    pub fn heartbeat(&self) {
        *self.shared.last_heartbeat.lock() = self.shared.clock.now();
        self.check_fault();
        // The first heartbeat of an incarnation wakes whoever waits for it
        // to serve; every later one pays a load.  Only this thread sets the
        // flag, and it was cleared before the thread started.
        if !self.shared.beating.load(Ordering::Relaxed) {
            self.shared.beating.store(true, Ordering::Release);
            self.shared.started.write();
        }
    }

    /// Honours any fault armed against the service without recording a
    /// heartbeat (see [`ServiceRuntime::heartbeat`]).
    ///
    /// # Panics
    ///
    /// Panics when a crash fault is armed or when the service is reaped.
    pub fn check_fault(&self) {
        if self.shared.reap.load(Ordering::Acquire) {
            panic!(
                "service {} reaped by the reincarnation server",
                self.shared.name
            );
        }
        let action = *self.shared.fault.lock();
        match action {
            FaultAction::None => {}
            FaultAction::Crash => {
                *self.shared.fault.lock() = FaultAction::None;
                panic!("injected crash in {}", self.shared.name);
            }
            FaultAction::Hang => {
                // Stop making progress (and heartbeating) until reaped or
                // explicitly released; whoever reaps, stops or re-arms the
                // service writes its wake word.
                loop {
                    let seen = self.shared.wake.value();
                    if self.shared.reap.load(Ordering::Acquire) {
                        panic!("hung service {} reaped", self.shared.name);
                    }
                    if self.shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    if *self.shared.fault.lock() != FaultAction::Hang {
                        return;
                    }
                    self.shared.wake.mwait(seen, MAX_PARK);
                }
            }
        }
    }
}

type ServiceBody = Arc<dyn Fn(ServiceRuntime) + Send + Sync + 'static>;

/// A registered crash-event listener.
type CrashListener = Box<dyn Fn(&CrashEvent) + Send + Sync>;

struct ManagedService {
    config: ServiceConfig,
    shared: Arc<ServiceShared>,
    body: ServiceBody,
    status: ServiceStatus,
    /// Every incarnation after the first, requested or not.
    restarts: u32,
    /// Deaths the watchdog detected and restarted: the budget
    /// `max_restarts` bounds.
    crash_restarts: u32,
    thread: Option<JoinHandle<()>>,
    exited: Arc<AtomicBool>,
    panicked: Arc<AtomicBool>,
    last_recovery: Option<RecoveryStamp>,
}

impl ManagedService {
    fn spawn_incarnation(&mut self, exits: &Arc<WakeWord>) {
        self.exited = Arc::new(AtomicBool::new(false));
        self.panicked = Arc::new(AtomicBool::new(false));
        self.shared.reap.store(false, Ordering::Release);
        self.shared.beating.store(false, Ordering::Release);
        *self.shared.last_heartbeat.lock() = self.shared.clock.now();
        let shared = Arc::clone(&self.shared);
        let body = Arc::clone(&self.body);
        let exited = Arc::clone(&self.exited);
        let panicked = Arc::clone(&self.panicked);
        let name = self.config.name.clone();
        let exits = Arc::clone(exits);
        let handle = std::thread::Builder::new()
            .name(format!("newtos-{name}"))
            .spawn(move || {
                let runtime = ServiceRuntime { shared };
                let result = catch_unwind(AssertUnwindSafe(|| body(runtime)));
                if result.is_err() {
                    panicked.store(true, Ordering::Release);
                }
                exited.store(true, Ordering::Release);
                exits.write();
            })
            .expect("spawning a service thread");
        self.thread = Some(handle);
        self.status = ServiceStatus::Running;
    }
}

struct RsInner {
    clock: SimClock,
    services: Mutex<HashMap<Endpoint, ManagedService>>,
    listeners: Mutex<Vec<CrashListener>>,
    crash_log: Mutex<Vec<CrashEvent>>,
    shutdown: AtomicBool,
    /// The watchdog's wake word, written by every exiting incarnation (so a
    /// crash is detected when it happens, not at the next watchdog period)
    /// and by shutdown.
    exits: Arc<WakeWord>,
}

/// The reincarnation server: registers services, watches them and restarts
/// crashed or hung incarnations.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::time::Duration;
/// use newt_kernel::clock::SimClock;
/// use newt_kernel::rs::{FaultAction, ReincarnationServer, ServiceConfig};
///
/// let rs = ReincarnationServer::new(SimClock::realtime());
/// let starts = Arc::new(AtomicU32::new(0));
/// let starts_in_body = Arc::clone(&starts);
/// let ep = rs.register(ServiceConfig::new("demo"), move |rt| {
///     starts_in_body.fetch_add(1, Ordering::SeqCst);
///     loop {
///         // Read the wake word, look at the control flags (and for work),
///         // then park on the word: a signal raised in between ends the
///         // park at once.
///         let seen = rt.wake_word().value();
///         if rt.should_stop() {
///             return;
///         }
///         rt.heartbeat();
///         rt.park(seen, None);
///     }
/// });
/// // Crash it once: the reincarnation server restarts it automatically.
/// rs.inject_fault(ep, FaultAction::Crash);
/// let deadline = std::time::Instant::now() + Duration::from_secs(10);
/// while starts.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
///     std::thread::sleep(Duration::from_millis(5));
/// }
/// rs.wait_until_running(ep, Duration::from_secs(5));
/// assert!(starts.load(Ordering::SeqCst) >= 2);
/// rs.shutdown();
/// ```
pub struct ReincarnationServer {
    inner: Arc<RsInner>,
    watchdog: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for ReincarnationServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReincarnationServer")
            .field("services", &self.inner.services.lock().len())
            .field("crashes", &self.inner.crash_log.lock().len())
            .finish()
    }
}

impl ReincarnationServer {
    /// Creates a reincarnation server and starts its watchdog.
    pub fn new(clock: SimClock) -> Self {
        let inner = Arc::new(RsInner {
            clock,
            services: Mutex::new(HashMap::new()),
            listeners: Mutex::new(Vec::new()),
            crash_log: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            exits: Arc::new(WakeWord::new()),
        });
        let watchdog_inner = Arc::clone(&inner);
        let watchdog = std::thread::Builder::new()
            .name("newtos-rs-watchdog".to_string())
            .spawn(move || watchdog_loop(watchdog_inner))
            .expect("spawning the reincarnation watchdog");
        ReincarnationServer {
            inner,
            watchdog: Mutex::new(Some(watchdog)),
        }
    }

    /// Registers and immediately starts a service.  The body closure is
    /// invoked once per incarnation.
    pub fn register<F>(&self, config: ServiceConfig, body: F) -> Endpoint
    where
        F: Fn(ServiceRuntime) + Send + Sync + 'static,
    {
        self.register_with_endpoint(
            config,
            Endpoint::from_raw(self.next_endpoint_raw()),
            Arc::new(WakeWord::new()),
            body,
        )
    }

    fn next_endpoint_raw(&self) -> u32 {
        // Endpoints chosen by the caller (via `register_with_endpoint`) and
        // auto-assigned ones share the space; auto assignment starts high to
        // avoid collisions with the well-known endpoints of the stack.
        static NEXT: AtomicU32 = AtomicU32::new(0x1000);
        NEXT.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a service under a caller-chosen endpoint and wake word
    /// (used by the stack so that servers keep well-known endpoints across
    /// restarts, and so that the queues built before the service starts
    /// already write the word it parks on).
    pub fn register_with_endpoint<F>(
        &self,
        config: ServiceConfig,
        endpoint: Endpoint,
        wake: Arc<WakeWord>,
        body: F,
    ) -> Endpoint
    where
        F: Fn(ServiceRuntime) + Send + Sync + 'static,
    {
        let shared = Arc::new(ServiceShared {
            name: config.name.clone(),
            endpoint,
            generation: AtomicU32::new(0),
            stop: AtomicBool::new(false),
            reap: AtomicBool::new(false),
            update: AtomicBool::new(false),
            snapshot: Mutex::new(None),
            start_mode: Mutex::new(StartMode::Fresh),
            fault: Mutex::new(FaultAction::None),
            last_heartbeat: Mutex::new(self.inner.clock.now()),
            beating: AtomicBool::new(false),
            started: WakeWord::new(),
            heartbeat_timeout: config.heartbeat_timeout,
            clock: self.inner.clock.clone(),
            wake,
        });
        let mut service = ManagedService {
            config,
            shared,
            body: Arc::new(body),
            status: ServiceStatus::Running,
            restarts: 0,
            crash_restarts: 0,
            thread: None,
            exited: Arc::new(AtomicBool::new(false)),
            panicked: Arc::new(AtomicBool::new(false)),
            last_recovery: None,
        };
        service.spawn_incarnation(&self.inner.exits);
        self.inner.services.lock().insert(endpoint, service);
        endpoint
    }

    /// Registers a callback invoked for every crash event (the mechanism the
    /// stack uses to tell neighbours to abort requests and re-attach
    /// channels).
    pub fn on_crash<F>(&self, listener: F)
    where
        F: Fn(&CrashEvent) + Send + Sync + 'static,
    {
        self.inner.listeners.lock().push(Box::new(listener));
    }

    /// Returns the crash events observed so far.
    pub fn crash_log(&self) -> Vec<CrashEvent> {
        self.inner.crash_log.lock().clone()
    }

    /// Returns a service's status.
    pub fn status(&self, endpoint: Endpoint) -> Option<ServiceStatus> {
        self.inner.services.lock().get(&endpoint).map(|s| s.status)
    }

    /// Returns a service's current generation.
    pub fn generation(&self, endpoint: Endpoint) -> Option<Generation> {
        self.inner
            .services
            .lock()
            .get(&endpoint)
            .map(|s| Generation::from_raw(s.shared.generation.load(Ordering::Acquire)))
    }

    /// Returns how many times a service has been restarted.
    pub fn restart_count(&self, endpoint: Endpoint) -> Option<u32> {
        self.inner
            .services
            .lock()
            .get(&endpoint)
            .map(|s| s.restarts)
    }

    /// Returns the virtual-time stamps of a service's most recent restart
    /// (crash detection and incarnation respawn), or `None` if the service
    /// has never been restarted.
    pub fn last_recovery(&self, endpoint: Endpoint) -> Option<RecoveryStamp> {
        self.inner
            .services
            .lock()
            .get(&endpoint)
            .and_then(|s| s.last_recovery)
    }

    /// Arms a fault against a service (the SWIFI hook).
    pub fn inject_fault(&self, endpoint: Endpoint, fault: FaultAction) {
        if let Some(service) = self.inner.services.lock().get(&endpoint) {
            *service.shared.fault.lock() = fault;
            service.shared.wake.write();
        }
    }

    /// Requests a graceful restart without state transfer: the current
    /// incarnation is asked to stop, then a new incarnation starts in
    /// restart mode and recovers crash-style from the storage server.
    ///
    /// Returns `true` if the service exists.
    pub fn force_restart(&self, endpoint: Endpoint) -> bool {
        self.replace_incarnation(endpoint, false)
    }

    /// Performs a live update (paper §V-E, the MS11-083 scenario): the
    /// current incarnation is asked to **quiesce** — finish its poll round,
    /// drain in-flight batches to a message boundary and stop accepting new
    /// work (peers' sends park harmlessly in the SPSC queues) — then to
    /// export its versioned hot state (**state transfer**).  The replacement
    /// incarnation starts in [`StartMode::LiveUpdate`], validates the
    /// snapshot tag, restores and **resumes**.  An incarnation that hands
    /// over nothing gets a plain [`StartMode::Restart`] replacement instead.
    ///
    /// Like [`ReincarnationServer::force_restart`] this is not a crash:
    /// nothing is written to the crash log, no crash event is published, and
    /// the recovery stamp it leaves is marked `requested` with a ~0
    /// detection latency (`detected_at` is the request time).
    ///
    /// Returns `true` if the service exists.
    pub fn live_update(&self, endpoint: Endpoint) -> bool {
        self.replace_incarnation(endpoint, true)
    }

    fn replace_incarnation(&self, endpoint: Endpoint, update: bool) -> bool {
        // The restart was *requested*, not detected: stamp detection now.
        let detected_at = self.inner.clock.now();
        let (thread, shared) = {
            let mut services = self.inner.services.lock();
            let Some(service) = services.get_mut(&endpoint) else {
                return false;
            };
            // Clear any stale hand-over before asking for a new one.
            service.shared.snapshot.lock().take();
            service.shared.update.store(update, Ordering::Release);
            service.shared.stop.store(true, Ordering::Release);
            service.shared.wake.write();
            // Marked `Stopped` (not `Restarting`) so the watchdog does not
            // race with this manual restart while the old incarnation winds
            // down.
            service.status = ServiceStatus::Stopped;
            (service.thread.take(), Arc::clone(&service.shared))
        };
        if let Some(handle) = thread {
            let _ = handle.join();
        }
        let mut services = self.inner.services.lock();
        let Some(service) = services.get_mut(&endpoint) else {
            return false;
        };
        shared.stop.store(false, Ordering::Release);
        shared.update.store(false, Ordering::Release);
        shared.generation.fetch_add(1, Ordering::AcqRel);
        let transferred = shared.snapshot.lock().is_some();
        *shared.start_mode.lock() = if update && transferred {
            StartMode::LiveUpdate
        } else {
            StartMode::Restart
        };
        *shared.fault.lock() = FaultAction::None;
        service.restarts += 1;
        service.spawn_incarnation(&self.inner.exits);
        service.last_recovery = Some(RecoveryStamp {
            detected_at,
            respawned_at: self.inner.clock.now(),
            requested: true,
        });
        true
    }

    /// Stops a service for good.
    pub fn stop(&self, endpoint: Endpoint) {
        let thread = {
            let mut services = self.inner.services.lock();
            let Some(service) = services.get_mut(&endpoint) else {
                return;
            };
            service.shared.stop.store(true, Ordering::Release);
            service.shared.wake.write();
            service.status = ServiceStatus::Stopped;
            service.thread.take()
        };
        if let Some(handle) = thread {
            let _ = handle.join();
        }
    }

    /// Returns `true` once a service's status is [`ServiceStatus::Running`]
    /// and its current incarnation is alive and has come through its first
    /// [`ServiceRuntime::heartbeat`] — a body heartbeats only once it has
    /// recovered, so the service then serves what it recovered.  Waits for
    /// at most `timeout` (real time) on a word that first heartbeat writes;
    /// an endpoint nobody registered is never running.
    pub fn wait_until_running(&self, endpoint: Endpoint, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let (shared, seen) = {
                let services = self.inner.services.lock();
                let Some(s) = services.get(&endpoint) else {
                    return false;
                };
                // Read before looking, so a heartbeat after the look ends
                // the wait below at once.
                let seen = s.shared.started.value();
                if s.status == ServiceStatus::Running
                    && s.shared.beating.load(Ordering::Acquire)
                    && !s.exited.load(Ordering::Acquire)
                {
                    return true;
                }
                (Arc::clone(&s.shared), seen)
            };
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            shared.started.mwait(seen, left);
        }
    }

    /// Lists the registered services as `(endpoint, name, status)` tuples.
    pub fn list(&self) -> Vec<(Endpoint, String, ServiceStatus)> {
        let services = self.inner.services.lock();
        let mut out: Vec<(Endpoint, String, ServiceStatus)> = services
            .iter()
            .map(|(ep, s)| (*ep, s.config.name.clone(), s.status))
            .collect();
        out.sort_by_key(|(ep, _, _)| *ep);
        out
    }

    /// Stops every service and the watchdog.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.exits.write();
        let endpoints: Vec<Endpoint> = self.inner.services.lock().keys().copied().collect();
        for ep in endpoints {
            self.stop(ep);
        }
        if let Some(handle) = self.watchdog.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ReincarnationServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How often the watchdog checks heartbeats when no incarnation exits.
const WATCHDOG_PERIOD: Duration = Duration::from_millis(5);

fn watchdog_loop(inner: Arc<RsInner>) {
    let mut seen = inner.exits.value();
    while !inner.shutdown.load(Ordering::Acquire) {
        seen = inner.exits.mwait(seen, WATCHDOG_PERIOD);
        let mut crashed: Vec<(Endpoint, CrashEvent)> = Vec::new();
        {
            let mut services = inner.services.lock();
            for (endpoint, service) in services.iter_mut() {
                match service.status {
                    ServiceStatus::Running => {}
                    ServiceStatus::Restarting => {
                        // Waiting for a reaped incarnation to exit.
                        if service.exited.load(Ordering::Acquire) {
                            let event = bury(&inner.clock, service, CrashReason::HeartbeatTimeout);
                            crashed.push((*endpoint, event));
                        }
                        continue;
                    }
                    _ => continue,
                }
                if service.exited.load(Ordering::Acquire) {
                    if service.shared.stop.load(Ordering::Acquire) {
                        service.status = ServiceStatus::Stopped;
                        continue;
                    }
                    let reason = if service.panicked.load(Ordering::Acquire) {
                        CrashReason::Panicked
                    } else {
                        CrashReason::ExitedUnexpectedly
                    };
                    crashed.push((*endpoint, bury(&inner.clock, service, reason)));
                    continue;
                }
                // Heartbeat check (virtual time).
                let last = *service.shared.last_heartbeat.lock();
                let now = inner.clock.now();
                if now.saturating_sub(last) > service.config.heartbeat_timeout {
                    // Reap the hung incarnation; the restart happens once the
                    // thread actually exits.
                    service.shared.reap.store(true, Ordering::Release);
                    service.shared.wake.write();
                    service.status = ServiceStatus::Restarting;
                }
            }
        }
        if crashed.is_empty() {
            continue;
        }
        // Publish before respawning: a neighbour looks at its crash notices
        // before its queues, so it has cleaned up after the dead
        // incarnation by the time it reads the replacement's first message.
        {
            let listeners = inner.listeners.lock();
            for (_, event) in &crashed {
                for listener in listeners.iter() {
                    listener(event);
                }
            }
        }
        let mut services = inner.services.lock();
        for (endpoint, event) in &crashed {
            if let Some(service) = services.get_mut(endpoint) {
                respawn(&inner, service, event.at);
            }
        }
        drop(services);
        inner
            .crash_log
            .lock()
            .extend(crashed.into_iter().map(|(_, event)| event));
    }
}

/// Buries a dead incarnation — joins its thread and settles whether the
/// service gets another one (`Restarting`) or has used up its restart budget
/// (`Failed`) — and returns the crash event to publish.
fn bury(clock: &SimClock, service: &mut ManagedService, reason: CrashReason) -> CrashEvent {
    let generation = Generation::from_raw(service.shared.generation.load(Ordering::Acquire));
    // Collect the incarnation's thread so it does not leak.
    if let Some(handle) = service.thread.take() {
        let _ = handle.join();
    }
    let restarting = service.crash_restarts < service.config.max_restarts;
    service.status = if restarting {
        ServiceStatus::Restarting
    } else {
        ServiceStatus::Failed
    };
    CrashEvent {
        name: service.config.name.clone(),
        endpoint: service.shared.endpoint,
        generation,
        reason,
        restarting,
        at: clock.now(),
    }
}

/// Starts the replacement of an incarnation [`bury`] marked `Restarting`
/// (unless the service was stopped in between).
fn respawn(inner: &RsInner, service: &mut ManagedService, detected_at: Duration) {
    if service.status != ServiceStatus::Restarting || inner.shutdown.load(Ordering::Acquire) {
        return;
    }
    service.restarts += 1;
    service.crash_restarts += 1;
    service.shared.generation.fetch_add(1, Ordering::AcqRel);
    *service.shared.start_mode.lock() = StartMode::Restart;
    *service.shared.fault.lock() = FaultAction::None;
    service.shared.stop.store(false, Ordering::Release);
    service.shared.update.store(false, Ordering::Release);
    // A crash invalidates any snapshot a previous live update left behind.
    service.shared.snapshot.lock().take();
    service.spawn_incarnation(&inner.exits);
    service.last_recovery = Some(RecoveryStamp {
        detected_at,
        respawned_at: inner.clock.now(),
        requested: false,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn counting_service(counter: Arc<AtomicU32>) -> impl Fn(ServiceRuntime) + Send + Sync {
        move |rt: ServiceRuntime| {
            counter.fetch_add(1, Ordering::SeqCst);
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn service_runs_and_stops_gracefully() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let starts = Arc::new(AtomicU32::new(0));
        let ep = rs.register(
            ServiceConfig::new("svc"),
            counting_service(Arc::clone(&starts)),
        );
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        assert_eq!(rs.status(ep), Some(ServiceStatus::Running));
        rs.stop(ep);
        assert_eq!(rs.status(ep), Some(ServiceStatus::Stopped));
        assert_eq!(starts.load(Ordering::SeqCst), 1);
        assert!(rs.crash_log().is_empty());
        rs.shutdown();
    }

    /// A body heartbeats only once it has recovered, so a service is not
    /// running before that — neither its first incarnation nor a
    /// replacement.
    #[test]
    fn running_waits_for_the_first_heartbeat() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let recovered = Arc::new(std::sync::Barrier::new(2));
        let recovered_in_body = Arc::clone(&recovered);
        let ep = rs.register(ServiceConfig::new("recovering"), move |rt| {
            // Stands for building and recovering the service's servers.
            recovered_in_body.wait();
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        for incarnation in 0..2 {
            let early = rs.wait_until_running(ep, Duration::from_millis(50));
            // Released before asserting: a failing test must not leave the
            // body on the barrier, where shutting down would wait forever.
            recovered.wait();
            assert!(!early, "incarnation {incarnation} ran before recovering");
            assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
            assert!(rs.force_restart(ep));
        }
        recovered.wait();
        rs.shutdown();
    }

    #[test]
    fn crash_is_detected_and_restarted_with_restart_mode() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let starts = Arc::new(AtomicU32::new(0));
        let restart_modes = Arc::new(Mutex::new(Vec::new()));
        let starts_c = Arc::clone(&starts);
        let modes_c = Arc::clone(&restart_modes);
        let ep = rs.register(ServiceConfig::new("crashy"), move |rt| {
            starts_c.fetch_add(1, Ordering::SeqCst);
            modes_c.lock().push(rt.start_mode());
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        rs.inject_fault(ep, FaultAction::Crash);
        // Wait for the restart (and its crash record) to be observed.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (starts.load(Ordering::SeqCst) < 2 || rs.crash_log().is_empty())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            starts.load(Ordering::SeqCst) >= 2,
            "service was not restarted"
        );
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        let modes = restart_modes.lock().clone();
        assert_eq!(modes[0], StartMode::Fresh);
        assert_eq!(modes[1], StartMode::Restart);
        assert_eq!(rs.generation(ep), Some(Generation::from_raw(1)));
        assert_eq!(rs.restart_count(ep), Some(1));
        let log = rs.crash_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].reason, CrashReason::Panicked);
        assert!(log[0].restarting);
        rs.shutdown();
    }

    #[test]
    fn hang_is_reaped_by_heartbeat_watchdog() {
        let rs = ReincarnationServer::new(SimClock::with_speedup(50.0));
        let starts = Arc::new(AtomicU32::new(0));
        let starts_c = Arc::clone(&starts);
        let config = ServiceConfig::new("hangy").heartbeat_timeout(Duration::from_millis(500));
        let ep = rs.register(config, move |rt| {
            starts_c.fetch_add(1, Ordering::SeqCst);
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        rs.inject_fault(ep, FaultAction::Hang);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let reaped = |rs: &ReincarnationServer| {
            rs.crash_log()
                .iter()
                .any(|e| e.reason == CrashReason::HeartbeatTimeout)
        };
        while (starts.load(Ordering::SeqCst) < 2 || !reaped(&rs))
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(
            starts.load(Ordering::SeqCst) >= 2,
            "hung service was not reaped and restarted"
        );
        assert!(
            reaped(&rs),
            "heartbeat timeout was not recorded in the crash log"
        );
        rs.shutdown();
    }

    /// A body that idles the way the stack's service loop does: park on the
    /// service's wake word, for far longer than the test may take.
    fn parking_service(counter: Arc<AtomicU32>) -> impl Fn(ServiceRuntime) + Send + Sync {
        move |rt: ServiceRuntime| {
            counter.fetch_add(1, Ordering::SeqCst);
            loop {
                let seen = rt.wake_word().value();
                if rt.should_stop() {
                    return;
                }
                rt.heartbeat();
                rt.wake_word().mwait(seen, Duration::from_secs(60));
            }
        }
    }

    #[test]
    fn control_signals_wake_a_parked_service() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let starts = Arc::new(AtomicU32::new(0));
        let config = ServiceConfig::new("parked").heartbeat_timeout(Duration::from_secs(600));
        let ep = rs.register(config, parking_service(Arc::clone(&starts)));
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        let begun = std::time::Instant::now();
        let wait_for_start = |n: u32| {
            while starts.load(Ordering::SeqCst) < n {
                assert!(begun.elapsed() < Duration::from_secs(30), "start {n}");
                std::thread::yield_now();
            }
        };
        // Each of these would otherwise wait out the 60 s park.
        rs.inject_fault(ep, FaultAction::Crash);
        wait_for_start(2);
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        assert!(rs.live_update(ep));
        wait_for_start(3);
        assert!(rs.force_restart(ep));
        wait_for_start(4);
        rs.stop(ep);
        rs.shutdown();
        assert!(begun.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn unexpected_exit_counts_as_crash() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let starts = Arc::new(AtomicU32::new(0));
        let starts_c = Arc::clone(&starts);
        let ep = rs.register(ServiceConfig::new("quitter").max_restarts(1), move |rt| {
            let n = starts_c.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                // First incarnation returns immediately without being asked.
                return;
            }
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while (starts.load(Ordering::SeqCst) < 2 || rs.crash_log().is_empty())
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(starts.load(Ordering::SeqCst) >= 2);
        let log = rs.crash_log();
        assert_eq!(log[0].reason, CrashReason::ExitedUnexpectedly);
        assert_eq!(rs.status(ep), Some(ServiceStatus::Running));
        rs.shutdown();
    }

    #[test]
    fn restart_budget_exhaustion_fails_the_service() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let ep = rs.register(ServiceConfig::new("doomed").max_restarts(0), |_rt| {
            panic!("always dies");
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while rs.status(ep) != Some(ServiceStatus::Failed) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(rs.status(ep), Some(ServiceStatus::Failed));
        let log = rs.crash_log();
        assert_eq!(log.len(), 1);
        assert!(!log[0].restarting);
        rs.shutdown();
    }

    #[test]
    fn live_updates_do_not_spend_the_crash_budget() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let starts = Arc::new(AtomicU32::new(0));
        let config = ServiceConfig::new("upgraded")
            .heartbeat_timeout(Duration::from_secs(600))
            .max_restarts(1);
        let ep = rs.register(config, parking_service(Arc::clone(&starts)));
        for _ in 0..40 {
            assert!(rs.live_update(ep));
        }
        // Crashes the current incarnation and waits until the watchdog has
        // logged the death and settled the service in `status`.
        let crash = |crashes: usize, status: ServiceStatus| {
            rs.inject_fault(ep, FaultAction::Crash);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while (rs.crash_log().len() < crashes || rs.status(ep) != Some(status))
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            assert_eq!(rs.status(ep), Some(status), "after crash {crashes}");
        };
        crash(1, ServiceStatus::Running);
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        assert_eq!(rs.restart_count(ep), Some(41));
        assert!(rs.crash_log()[0].restarting);
        crash(2, ServiceStatus::Failed);
        assert!(!rs.crash_log()[1].restarting);
        assert_eq!(starts.load(Ordering::SeqCst), 42);
        rs.shutdown();
    }

    #[test]
    fn crash_listeners_are_notified() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_c = Arc::clone(&seen);
        rs.on_crash(move |event| seen_c.lock().push(event.name.clone()));
        let ep = rs.register(ServiceConfig::new("observed"), |rt| {
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        rs.inject_fault(ep, FaultAction::Crash);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().is_empty() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(seen.lock().first().map(String::as_str), Some("observed"));
        rs.shutdown();
    }

    #[test]
    fn force_restart_is_a_live_update() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let starts = Arc::new(AtomicU32::new(0));
        let ep = rs.register(
            ServiceConfig::new("updatable"),
            counting_service(Arc::clone(&starts)),
        );
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        assert!(rs.force_restart(ep));
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while starts.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(starts.load(Ordering::SeqCst), 2);
        // A live update is not a crash: nothing in the crash log.
        assert!(rs.crash_log().is_empty());
        assert_eq!(rs.generation(ep), Some(Generation::from_raw(1)));
        // The restart was requested, so detection latency is ~0 by
        // definition.
        let stamp = rs.last_recovery(ep).expect("a recovery stamp");
        assert!(stamp.requested);
        assert!(stamp.respawned_at >= stamp.detected_at);
        assert!(!rs.force_restart(Endpoint::from_raw(9999)));
        rs.shutdown();
    }

    #[test]
    fn live_update_transfers_state_to_the_replacement() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_c = Arc::clone(&seen);
        let ep = rs.register(ServiceConfig::new("stateful"), move |rt| {
            let restored = match rt.start_mode() {
                StartMode::LiveUpdate => rt.take_snapshot(),
                _ => None,
            };
            seen_c.lock().push((rt.start_mode(), restored));
            loop {
                rt.heartbeat();
                if rt.update_requested() {
                    // Quiesce, then hand over versioned hot state.
                    rt.hand_over(7, vec![1, 2, 3]);
                    return;
                }
                if rt.should_stop() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        assert!(rs.live_update(ep));
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.lock().len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let incarnations = seen.lock().clone();
        assert_eq!(incarnations.len(), 2);
        assert_eq!(incarnations[0].0, StartMode::Fresh);
        assert!(incarnations[0].1.is_none());
        // The replacement started in live-update mode with the snapshot.
        assert_eq!(incarnations[1].0, StartMode::LiveUpdate);
        let snapshot = incarnations[1].1.clone().expect("handed-over snapshot");
        assert!(snapshot.accepts("stateful", 7));
        assert!(!snapshot.accepts("stateful", 8));
        assert!(!snapshot.accepts("other", 7));
        assert_eq!(snapshot.generation, Generation::from_raw(0));
        assert_eq!(snapshot.payload, vec![1, 2, 3]);
        // Not a crash; the stamp says "requested".
        assert!(rs.crash_log().is_empty());
        assert!(rs.last_recovery(ep).expect("stamp").requested);
        rs.shutdown();
    }

    #[test]
    fn live_update_without_hand_over_falls_back_to_restart_mode() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let modes = Arc::new(Mutex::new(Vec::new()));
        let modes_c = Arc::clone(&modes);
        // A body that predates the hand-over protocol: only honours stop.
        let ep = rs.register(ServiceConfig::new("legacy"), move |rt| {
            modes_c.lock().push(rt.start_mode());
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        assert!(rs.live_update(ep));
        assert!(rs.wait_until_running(ep, Duration::from_secs(2)));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while modes.lock().len() < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            modes.lock().clone(),
            vec![StartMode::Fresh, StartMode::Restart],
            "no snapshot handed over means crash-style recovery"
        );
        assert!(rs.crash_log().is_empty());
        rs.shutdown();
    }

    #[test]
    fn list_reports_registered_services() {
        let rs = ReincarnationServer::new(SimClock::realtime());
        let a = rs.register(ServiceConfig::new("a"), |rt| {
            while !rt.should_stop() {
                rt.heartbeat();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let listed = rs.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, a);
        assert_eq!(listed[0].1, "a");
        rs.shutdown();
    }
}
