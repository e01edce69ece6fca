//! Fast-path asynchronous user-space communication channels.
//!
//! This crate implements the communication substrate of the NewtOS design
//! (Hruby et al., *Keep Net Working — On a Dependable and Fast Networking
//! Stack*, DSN 2012): instead of trapping into the kernel for every
//! interprocess message, operating-system servers running on dedicated cores
//! exchange requests over **shared-memory channels** that the kernel only
//! helps to set up.
//!
//! The channel architecture has three basic parts (paper §IV):
//!
//! 1. **Queues** ([`spsc`]) — single-producer/single-consumer ring buffers
//!    passing fixed-size marshalled requests between two components, with the
//!    head and tail indices in separate cache lines so they never bounce
//!    between cores.
//! 2. **Pools** ([`pool`]) — shared, read-only-exported memory pools holding
//!    large data, referenced by *rich pointers* ([`rich`]) so that payloads
//!    move through the stack without copying.
//! 3. **A request database** ([`reqdb`]) — single-threaded asynchronous
//!    servers remember every request they injected into the channels together
//!    with an *abort action* to execute if the destination crashes.
//!
//! Around these sit the management pieces: endpoint identities and restart
//! generations ([`endpoint`]), the registry of shared objects — pool
//! readers, socket buffers, ring queues — that servers publish and attach
//! by name ([`registry`]), and the MONITOR/MWAIT-style wake-up words that
//! let idle consumers sleep without kernel polling ([`wake`]).
//!
//! # Fast path
//!
//! The paper's performance argument (§IV) hinges on what one message costs:
//! enqueueing on a user-space channel between two dedicated cores is ~30
//! cycles, versus ~150 cycles for a hot kernel trap and ~3000 for a cold
//! one.  Reaching the same regime in this reproduction takes three
//! ingredients, all implemented in [`spsc`]:
//!
//! * **No locks.**  The queue is strictly single-producer/single-consumer,
//!   so enqueue and dequeue are plain index arithmetic plus one release
//!   store; there is no mutex anywhere on the per-message path.  The
//!   restart story that used to motivate a mutex is handled by the stack's
//!   fabric instead: each queue end lives in a parking slot, an incarnation
//!   *acquires* it once at startup (one mutex acquisition per incarnation,
//!   not per message), owns it exclusively — `&mut`, enforced at compile
//!   time — and its `Drop` parks the end for the next incarnation.  The
//!   reincarnation server joins a dead incarnation's thread before starting
//!   the replacement, which makes that hand-over race-free.
//! * **No foreign cache lines.**  Producer and consumer indices live 128
//!   bytes apart, and each side additionally caches the last value it saw
//!   of the *other* side's index.  The producer re-reads the consumer's
//!   cache line only when its cached view says "full" (the consumer, when
//!   its view says "empty"), so in steady state an enqueue touches only
//!   producer-owned lines — the FastForward trick the paper cites.
//! * **No per-message bookkeeping.**  [`spsc::Sender::send_batch`] and
//!   [`spsc::Receiver::drain_into`] reserve ring space once, move the whole
//!   batch, then publish the index, write the wake word and update the
//!   statistics counters **once per batch**.  The counters themselves are
//!   single-writer: each side accumulates locally and flushes with a plain
//!   relaxed store, so [`QueueStats`] adds zero atomic read-modify-writes
//!   to the fast path.
//!
//! Servers reuse per-queue scratch buffers across poll rounds, so the
//! steady-state message path performs no heap allocation either.  The
//! `newt-bench` crate's `channels` benchmark and the `table1` binary (which
//! emits `BENCH_fastpath.json`) track these costs across pull requests.
//!
//! # Example: a tiny asynchronous request/reply pipeline
//!
//! ```
//! use std::time::Duration;
//! use newt_channels::endpoint::Endpoint;
//! use newt_channels::pool::Pool;
//! use newt_channels::reqdb::{AbortPolicy, RequestDb};
//! use newt_channels::rich::RichPtr;
//! use newt_channels::spsc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ip = Endpoint::from_raw(1);
//! let driver = Endpoint::from_raw(2);
//!
//! // IP owns a pool of packet buffers and a request queue towards the driver.
//! let pool = Pool::new("ip.tx", ip, 2048, 64);
//! let (mut to_drv, mut drv_rx) = spsc::channel::<(u64, RichPtr)>(32);
//! let (mut drv_tx, mut from_drv) = spsc::channel::<u64>(32);
//!
//! // The driver consumes requests and acknowledges them (in a real stack this
//! // runs on another dedicated core).
//! let drv_pool = pool.reader();
//! std::thread::spawn(move || {
//!     while let Ok((req, ptr)) = drv_rx.recv_timeout(Duration::from_millis(100)) {
//!         let frame = drv_pool.read(&ptr).expect("fresh pointer");
//!         assert!(!frame.is_empty());
//!         drv_tx.try_send(req).ok();
//!     }
//! });
//!
//! // IP submits an asynchronous transmit request and remembers it.
//! let mut reqdb: RequestDb<RichPtr> = RequestDb::new();
//! let ptr = pool.publish(b"ethernet frame bytes")?;
//! let id = reqdb.submit(driver, AbortPolicy::Resubmit, ptr);
//! to_drv.try_send((id.as_raw(), ptr)).unwrap();
//!
//! // ... later the acknowledgement comes back and the buffer can be freed.
//! let done = from_drv.recv_timeout(Duration::from_secs(1))?;
//! let ptr = reqdb.complete(newt_channels::reqdb::RequestId::from_raw(done)).unwrap();
//! pool.free(&ptr)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod endpoint;
pub mod error;
pub mod pool;
pub mod registry;
pub mod reqdb;
pub mod rich;
pub mod spsc;
pub mod wake;

pub use endpoint::{Endpoint, Generation};
pub use error::{PoolError, RecvTimeoutError, RegistryError, TryRecvError, TrySendError};
pub use pool::{ChunkWriter, Pool, PoolReader, PoolStats};
pub use registry::Registry;
pub use reqdb::{AbortPolicy, AbortedRequest, RequestDb, RequestId};
pub use rich::{PoolId, RichChain, RichPtr};
pub use spsc::{channel, QueueStats, Receiver, Sender};
pub use wake::{IdleMonitor, WakeStats, WakeWord};
