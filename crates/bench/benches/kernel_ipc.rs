//! Microbenchmarks of the slow path: synchronous kernel IPC.
//!
//! Compared with the `channels` benchmarks, these show the gap the paper
//! exploits — every kernel-mediated message pays traps (and IPIs when the
//! destination is idle), which the fast-path channels avoid entirely.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use newt_channels::endpoint::Endpoint;
use newt_kernel::cost::CostModel;
use newt_kernel::ipc::{KernelIpc, Message};

fn bench_kernel_ipc(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_ipc");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    group.bench_function("send_try_receive_same_thread", |b| {
        let kernel = KernelIpc::new(CostModel::default());
        let a = Endpoint::from_raw(1);
        let srv = Endpoint::from_raw(2);
        kernel.attach(a);
        kernel.attach(srv);
        b.iter(|| {
            kernel
                .send(a, srv, Message::new(1).with_word(0, 7))
                .unwrap();
            criterion::black_box(kernel.try_receive(srv).unwrap());
        });
    });

    group.bench_function("sendrec_round_trip_across_threads", |b| {
        let kernel = KernelIpc::new(CostModel::default());
        let client = Endpoint::from_raw(1);
        let server = Endpoint::from_raw(2);
        kernel.attach(client);
        kernel.attach(server);
        let server_kernel = kernel.clone();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop_server = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop_server.load(std::sync::atomic::Ordering::Relaxed) {
                if let Ok(msg) = server_kernel.receive(server, Duration::from_millis(50)) {
                    let _ = server_kernel.send(server, msg.source, Message::new(msg.mtype + 1));
                }
            }
        });
        b.iter(|| {
            let reply = kernel
                .sendrec(client, server, Message::new(10), Duration::from_secs(5))
                .unwrap();
            criterion::black_box(reply.mtype);
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        handle.join().unwrap();
    });

    group.finish();
}

criterion_group!(benches, bench_kernel_ipc);
criterion_main!(benches);
