//! Hostile-traffic overload bench — the adversarial counterpart of the
//! dependability campaign.  While well-behaved keep-alive HTTP clients
//! run verified load against the sharded stack, the peer host turns
//! hostile mid-run and launches each of the four attacks in turn:
//!
//! * **syn-flood** — spoofed, unresolvable sources that never complete
//!   the handshake, pushing the listener to its half-open cap and onto
//!   stateless SYN cookies;
//! * **slow-loris** — real connections dripping one header byte at a
//!   time, killed by the server's header-read deadline;
//! * **churn** — waves of full handshakes slammed shut with RSTs,
//!   shed with `503` at the admission watermark;
//! * **malformed-fuzz** — truncated, bit-flipped and lying frames,
//!   counted and dropped by the IP and TCP demux hardening.
//!
//! Every cell runs at {1, 4} shards.  Writes `BENCH_overload.json`.
//!
//! Gates (absolute, shared with the `newt-faults` module tests via
//! [`OverloadRecord::gate_failures`]): every legitimate body verifies
//! and every quota completes, half-open occupancy stays under the cap
//! and drains to zero, goodput under the SYN flood stays ≥ 70 % of
//! steady state, and each attack demonstrably engaged its defense.

use newt_bench::header;
use newt_bench::record::{Gates, Json};
use newt_faults::overload::{run_overload, AttackKind, OverloadConfig, OverloadRecord};

fn row(r: &OverloadRecord) -> Json {
    Json::object()
        .with("attack", r.attack.as_str())
        .with("shards", r.shards)
        .with("completed", r.completed)
        .with("expected", r.expected_requests)
        .with("verify_failures", r.verify_failures)
        .with("retries", r.retries)
        .with("goodput_retained", Json::Num(r.goodput_retained, 3))
        .with("attack_events", r.attack_events)
        .with("half_open_cap", r.half_open_cap)
        .with("half_open_peak", r.half_open_peak)
        .with("half_open_after", r.half_open_after)
        .with("half_open_drops", r.half_open_drops)
        .with("half_open_reaped", r.half_open_reaped)
        .with("syn_cookies_sent", r.syn_cookies_sent)
        .with("syn_cookies_validated", r.syn_cookies_validated)
        .with("syn_cookies_rejected", r.syn_cookies_rejected)
        .with("rsts_out", r.rsts_out)
        .with("rx_malformed", r.rx_malformed)
        .with("ip_parse_errors", r.ip_parse_errors)
        .with("arp_overflow", r.arp_overflow)
        .with("shed_503", r.shed_503)
        .with("loris_kills", r.loris_kills)
        .with("accept_paused", r.accept_paused)
}

fn main() {
    header(
        "Overload under attack — hostile traffic against the serving stack",
        "SYN flood / slow loris / churn / malformed fuzz vs the PR6 defenses",
    );

    let mut records = Vec::new();
    for shards in [1usize, 4] {
        for attack in AttackKind::ALL {
            let config = OverloadConfig::cell(shards, attack);
            println!(
                "running {} vs {} shard(s): {} conns x {} reqs, attack volume {}...",
                attack.label(),
                shards,
                config.connections,
                config.requests_per_connection,
                config.attack_volume,
            );
            let record = run_overload(&config);
            println!("{}", record.render());
            records.push(record);
        }
    }

    Json::object()
        .with(
            "campaign",
            "hostile traffic vs the serving stack: spoofed SYN flood (half-open cap + SYN cookies + SYN-RECEIVED reaper), slow loris (header-read deadline), connection churn (503 shedding + accept pausing), malformed-frame fuzz (demux hardening); goodput = legitimate completions during the attack window vs steady state",
        )
        .with("results", records.iter().map(row).collect::<Vec<_>>())
        .save("BENCH_overload.json");

    let mut gates = Gates::default();
    gates.extend(records.iter().flat_map(OverloadRecord::gate_failures));
    gates.finish(
        "all bodies byte-verified under attack, goodput within the gate, half-open occupancy bounded and drained, every defense engaged",
    );
}
