//! Microbenchmarks of packet parsing/building and checksumming — the
//! per-packet protocol work whose cost the evaluation's cycle model uses —
//! and of the device path under the driver: a frame across the link and
//! RSS steering.

use std::net::Ipv4Addr;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};

use newt_kernel::clock::SimClock;
use newt_net::link::{Link, LinkConfig};
use newt_net::rss::{RssKey, RssSteering};
use newt_net::wire::{
    internet_checksum, EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags,
    TcpSegment,
};

fn sample_frame(payload: usize) -> Vec<u8> {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let mut seg = TcpSegment::control(40_000, 5001, 1, 1, TcpFlags::PSH_ACK);
    seg.payload = vec![0x3cu8; payload];
    let ip = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.build(src, dst));
    EthernetFrame::new(
        MacAddr::from_index(1),
        MacAddr::from_index(2),
        EtherType::Ipv4,
        ip.build(),
    )
    .build()
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let frame = sample_frame(1460);
    group.bench_function("parse_full_frame_1460B", |b| {
        b.iter(|| {
            let eth = EthernetFrame::parse(criterion::black_box(&frame)).unwrap();
            let ip = Ipv4Packet::parse(&eth.payload).unwrap();
            let tcp = TcpSegment::parse(&ip.payload, ip.src, ip.dst).unwrap();
            criterion::black_box(tcp.payload.len());
        });
    });

    group.bench_function("build_full_frame_1460B", |b| {
        b.iter(|| criterion::black_box(sample_frame(1460).len()));
    });

    // An IPv4 header, a TCP header with options, an MSS payload, a GRO
    // merge, and an MSS payload that starts one byte into its buffer.
    let bytes: Vec<u8> = (0..64 * 1024 + 1)
        .map(|i| (i * 7 + i / 256) as u8)
        .collect();
    for (name, data) in [
        ("internet_checksum_20B", &bytes[..20]),
        ("internet_checksum_40B", &bytes[..40]),
        ("internet_checksum_1460B", &bytes[..1460]),
        ("internet_checksum_64KiB", &bytes[..64 * 1024]),
        ("internet_checksum_1460B_unaligned", &bytes[1..1461]),
        // An MTU frame's IP payload: what the peer and GRO sum per frame.
        ("checksum_1480b", &bytes[..1480]),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| criterion::black_box(internet_checksum(criterion::black_box(data))));
        });
    }

    group.finish();
}

fn bench_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // A frame transmitted on one port and received on the other, on an
    // unshaped link (it arrives at once): alone, and in a burst of 32 (the
    // second figure is per burst; divide by 32 for the cost per frame).
    let (_link, a, b) = Link::new(LinkConfig::unshaped(), SimClock::realtime());
    let frame = Bytes::from(sample_frame(64));
    let mut arrived = Vec::with_capacity(32);
    group.bench_function("link_tx_rx_1_frame", |bench| {
        bench.iter(|| {
            a.transmit(frame.clone());
            b.receive_burst(&mut arrived);
            arrived.clear();
        });
    });
    group.bench_function("link_tx_rx_burst_of_32", |bench| {
        bench.iter(|| {
            a.transmit_burst((0..32).map(|_| frame.clone()));
            b.receive_burst(&mut arrived);
            arrived.clear();
        });
    });

    // RSS steering of an inbound TCP frame that no flow-director entry
    // pins: nothing to choose on one queue, the Toeplitz hash on four.
    for queues in [1, 4] {
        let steering = RssSteering::new(RssKey::default(), queues);
        group.bench_function(&format!("steer_frame_{queues}_queues"), |bench| {
            bench.iter(|| steering.steer_frame(criterion::black_box(&frame)));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_wire, bench_device);
criterion_main!(benches);
