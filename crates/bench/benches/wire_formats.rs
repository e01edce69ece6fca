//! Microbenchmarks of packet parsing/building and checksumming — the
//! per-packet protocol work whose cost the evaluation's cycle model uses.

use std::net::Ipv4Addr;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

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
    ] {
        group.bench_function(name, |b| {
            b.iter(|| criterion::black_box(internet_checksum(criterion::black_box(data))));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
