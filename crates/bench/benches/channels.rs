//! Microbenchmarks of the fast-path channel primitives (paper §IV).
//!
//! The paper's headline micro-measurement: a void kernel call costs ~150
//! cycles hot / ~3000 cold, while enqueueing a message on a user-space
//! channel between two cores costs ~30 cycles.  These benchmarks measure the
//! reproduction's equivalents: SPSC enqueue/dequeue (single-message and
//! batched, direct and through the mutex-guarded handle the fabric used
//! before the lock-free fast path), pool publish/read/free, the request
//! database, and what a socket operation costs when nobody waits: a
//! wake-word write and one cycle through a shared socket buffer.

use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, Shelf};
use criterion::{criterion_group, criterion_main, Criterion};
use parking_lot::Mutex;

use newt_channels::endpoint::Endpoint;
use newt_channels::pool::Pool;
use newt_channels::reqdb::{AbortPolicy, RequestDb};
use newt_channels::spsc;
use newt_channels::wake::WakeWord;
use newt_stack::sockbuf::{Doorbell, SocketBuffer};

const BATCH: usize = 64;

fn bench_spsc(c: &mut Criterion) {
    let mut group = c.benchmark_group("spsc");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    group.bench_function("enqueue_dequeue_same_thread", |b| {
        let (mut tx, mut rx) = spsc::channel::<u64>(1024);
        b.iter(|| {
            tx.try_send(criterion::black_box(42)).unwrap();
            criterion::black_box(rx.try_recv().unwrap());
        });
    });

    // The seed's fabric path: every message takes an uncontended mutex
    // acquisition on each side.  Kept as the baseline the lock-free handles
    // are measured against.
    group.bench_function("enqueue_dequeue_mutex_guarded", |b| {
        let (tx, rx) = spsc::channel::<u64>(1024);
        let tx = Arc::new(Mutex::new(tx));
        let rx = Arc::new(Mutex::new(rx));
        b.iter(|| {
            tx.lock().try_send(criterion::black_box(42)).unwrap();
            criterion::black_box(rx.lock().try_recv().unwrap());
        });
    });

    group.bench_function("batch64_send_drain_same_thread", |b| {
        let (mut tx, mut rx) = spsc::channel::<u64>(1024);
        let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
        let mut out: Vec<u64> = Vec::with_capacity(BATCH);
        b.iter(|| {
            batch.clear();
            batch.extend(0..BATCH as u64);
            tx.send_batch(&mut batch);
            out.clear();
            criterion::black_box(rx.drain_into(&mut out));
        });
    });

    // The seed's per-message mutex path, batch-sized for a fair per-batch
    // comparison: 64 lock/unlock pairs per side plus a fresh Vec per drain.
    group.bench_function("batch64_mutex_single_message_baseline", |b| {
        let (tx, rx) = spsc::channel::<u64>(1024);
        let tx = Arc::new(Mutex::new(tx));
        let rx = Arc::new(Mutex::new(rx));
        b.iter(|| {
            for i in 0..BATCH as u64 {
                tx.lock().try_send(criterion::black_box(i)).unwrap();
            }
            let drained: Vec<u64> = rx.lock().drain();
            criterion::black_box(drained);
        });
    });

    group.bench_function("enqueue_while_consumer_drains", |b| {
        // The paper's scenario: the receiver keeps consuming on another core
        // while the sender enqueues asynchronously.
        let (mut tx, mut rx) = spsc::channel::<u64>(4096);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_consumer = std::sync::Arc::clone(&stop);
        let consumer = std::thread::spawn(move || {
            let mut scratch = Vec::with_capacity(4096);
            while !stop_consumer.load(std::sync::atomic::Ordering::Relaxed) {
                scratch.clear();
                while rx.drain_into(&mut scratch) != 0 {
                    scratch.clear();
                }
                std::hint::spin_loop();
            }
        });
        b.iter(|| {
            // Retry on full; the consumer drains continuously.
            let mut v = criterion::black_box(7u64);
            loop {
                match tx.try_send(v) {
                    Ok(()) => break,
                    Err(e) => v = e.into_inner(),
                }
            }
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        consumer.join().unwrap();
    });

    group.bench_function("batch64_enqueue_while_consumer_drains", |b| {
        let (mut tx, mut rx) = spsc::channel::<u64>(4096);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_consumer = std::sync::Arc::clone(&stop);
        let consumer = std::thread::spawn(move || {
            let mut scratch = Vec::with_capacity(4096);
            while !stop_consumer.load(std::sync::atomic::Ordering::Relaxed) {
                scratch.clear();
                while rx.drain_into(&mut scratch) != 0 {
                    scratch.clear();
                }
                std::hint::spin_loop();
            }
        });
        let mut batch: Vec<u64> = Vec::with_capacity(BATCH);
        b.iter(|| {
            batch.clear();
            batch.extend(0..BATCH as u64);
            while !batch.is_empty() {
                if tx.send_batch(&mut batch) == 0 {
                    std::hint::spin_loop();
                }
            }
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        consumer.join().unwrap();
    });
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let pool = Pool::new("bench", Endpoint::from_raw(1), 2048, 256);
    let reader = pool.reader();
    let payload = vec![0xa5u8; 1460];
    group.bench_function("publish_read_free_1460B", |b| {
        b.iter(|| {
            let ptr = pool.publish(&payload).unwrap();
            criterion::black_box(reader.read(&ptr).unwrap());
            pool.free(&ptr).unwrap();
        });
    });
    group.finish();
}

fn bench_reqdb(c: &mut Criterion) {
    let mut group = c.benchmark_group("reqdb");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    group.bench_function("submit_complete", |b| {
        let mut db: RequestDb<u64> = RequestDb::new();
        let dest = Endpoint::from_raw(4);
        b.iter(|| {
            let id = db.submit(dest, AbortPolicy::Resubmit, criterion::black_box(99));
            criterion::black_box(db.complete(id));
        });
    });
    group.finish();
}

fn bench_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // What a completion post or a doorbell ring pays for its wake-up when
    // nobody is parked on the word.
    group.bench_function("wake_word_write_nobody_parked", |b| {
        let word = WakeWord::new();
        b.iter(|| criterion::black_box(&word).write());
    });

    // The four buffer operations of a `step_small` request, none of which
    // blocks: the application writes a 256-byte response, TCP re-arms the
    // doorbell, drains it and the send queue, the request arrives by
    // reference in its 310-byte frame, and the application reads it.
    group.bench_function("sockbuf_cycle_256b", |b| {
        let doorbell = Doorbell::new();
        let buffer = SocketBuffer::new(64 * 1024, 64 * 1024);
        buffer.attach_doorbell(std::sync::Arc::clone(&doorbell), 1);
        let (data, frame) = ([7u8; 256], Bytes::from(vec![9u8; 310]));
        let (mut rung, mut out) = (Vec::with_capacity(4), [0u8; 256]);
        b.iter(|| {
            buffer.write(&data).unwrap();
            buffer.rearm_doorbell();
            rung.clear();
            doorbell.drain_into(&mut rung);
            criterion::black_box(buffer.drain_send_bytes(256));
            buffer.push_recv_bytes(frame.slice(54..), frame.len());
            buffer.read(&mut out).unwrap();
        });
    });

    // A wire frame's buffer over its life: taken from its owner's shelf,
    // filled with an MSS, frozen, and dropped — home to the shelf.
    group.bench_function("shelf_round_trip_1536b", |b| {
        let shelf = Shelf::new();
        let payload = [5u8; 1460];
        b.iter(|| {
            let mut buf = shelf.take(1536);
            buf.extend_from_slice(criterion::black_box(&payload));
            criterion::black_box(buf.freeze());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_spsc, bench_pool, bench_reqdb, bench_sync);
criterion_main!(benches);
