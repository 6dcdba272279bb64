//! `cvr-client`: connect one or more headless trace-replay clients to a
//! running `cvr-serve` instance over TCP.
//!
//! ```text
//! cvr-client --connect 127.0.0.1:7015 --slots 200 \
//!     [--count 1] [--seed 1] [--slot-ms 15]
//! ```
//!
//! With `--count N`, one process drives `N` independent connections
//! (seeds `seed..seed+N`) off a single slot ticker on one thread — every
//! socket is non-blocking and serviced from the slot loop — which is how
//! the bench and smoke harnesses stand up hundreds of clients without
//! hundreds of processes or threads.
//!
//! Exits non-zero if any handshake never completed or any protocol
//! error occurred.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use cvr_serve::client::{ClientConfig, ReplayClient};
use cvr_serve::readiness::NbClientTransport;
use cvr_serve::ticker::SlotTicker;

/// How long to keep retrying the initial connect (the server may still
/// be binding when the smoke script launches us).
const CONNECT_PATIENCE: Duration = Duration::from_secs(10);

struct Args {
    connect: String,
    slots: u64,
    count: usize,
    seed: u64,
    slot_ms: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        connect: "127.0.0.1:7015".to_string(),
        slots: 200,
        count: 1,
        seed: 1,
        slot_ms: 15.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--connect" => args.connect = value(),
            "--slots" => args.slots = value().parse().expect("--slots"),
            "--count" => args.count = value().parse().expect("--count"),
            "--seed" => args.seed = value().parse().expect("--seed"),
            "--slot-ms" => args.slot_ms = value().parse().expect("--slot-ms"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.count >= 1, "--count must be at least 1");
    args
}

fn connect_with_retry(addr: &str) -> TcpStream {
    let deadline = Instant::now() + CONNECT_PATIENCE;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return stream,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "could not connect to {addr}: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let mut clients: Vec<ReplayClient<NbClientTransport>> = (0..args.count)
        .map(|i| {
            let stream = connect_with_retry(&args.connect);
            let transport = NbClientTransport::new(stream, 64).expect("wrap connection");
            ReplayClient::new(
                transport,
                ClientConfig {
                    seed: args.seed + i as u64,
                    slot_duration_s: args.slot_ms / 1000.0,
                    ..ClientConfig::default()
                },
            )
        })
        .collect();

    let mut ticker = SlotTicker::new(Duration::from_secs_f64(args.slot_ms / 1000.0));
    for _ in 0..args.slots {
        for client in &mut clients {
            client.step_slot();
        }
        ticker.wait();
        if clients.iter().all(ReplayClient::finished) {
            break;
        }
    }

    let mut failures = 0usize;
    for client in clients {
        let report = client.finish();
        println!(
            "user {}: seed={} welcomed={} assignments={} protocol_errors={} \
             slots={} avg_viewed_q={:.3} avg_delay={:.2} \
             rtt_us p50={:.1} p95={:.1} p99={:.1}",
            report.user_id,
            report.seed,
            report.welcomed,
            report.assignments,
            report.protocol_errors,
            report.summary.slots,
            report.summary.avg_viewed_quality,
            report.summary.avg_delay,
            report.rtt.p50 / 1e3,
            report.rtt.p95 / 1e3,
            report.rtt.p99 / 1e3,
        );
        if !report.welcomed {
            eprintln!("FAIL: seed {} handshake never completed", report.seed);
            failures += 1;
        }
        if report.protocol_errors > 0 {
            eprintln!(
                "FAIL: seed {} saw {} protocol errors",
                report.seed, report.protocol_errors
            );
            failures += 1;
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
