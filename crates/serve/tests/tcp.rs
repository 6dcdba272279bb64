//! TCP smoke test on the production path: a real listener on an
//! ephemeral port, two replay clients over real sockets registered with
//! a [`ShardHost`]'s readiness poller, zero protocol errors. Both clients
//! run on one thread off one ticker, as `cvr-client --count` drives them.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use cvr_serve::client::{ClientConfig, ReplayClient};
use cvr_serve::readiness::NbClientTransport;
use cvr_serve::server::ServeConfig;
use cvr_serve::shard::{HostConfig, ShardHost};
use cvr_serve::ticker::SlotTicker;

const SLOTS: u64 = 80;
const SLOT: Duration = Duration::from_millis(5);

#[test]
fn two_tcp_clients_stream_without_protocol_errors() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let driver = std::thread::spawn(move || {
        let mut clients: Vec<_> = (0..2)
            .map(|u| {
                let stream = TcpStream::connect(addr).expect("connect");
                let transport = NbClientTransport::new(stream, 64).expect("transport");
                ReplayClient::new(
                    transport,
                    ClientConfig {
                        seed: 40 + u,
                        slot_duration_s: SLOT.as_secs_f64(),
                        ..ClientConfig::default()
                    },
                )
            })
            .collect();
        let mut ticker = SlotTicker::new(SLOT);
        for _ in 0..SLOTS {
            for client in &mut clients {
                client.step_slot();
            }
            ticker.wait();
            if clients.iter().all(ReplayClient::finished) {
                break;
            }
        }
        clients
            .into_iter()
            .map(ReplayClient::finish)
            .collect::<Vec<_>>()
    });

    let mut host = ShardHost::new(HostConfig {
        shards: 1,
        session: ServeConfig {
            slot_duration: SLOT,
            ..ServeConfig::default()
        },
    });
    let session = host.add_session();
    for _ in 0..2 {
        let (stream, _) = listener.accept().expect("accept");
        host.add_tcp(session, stream, 64).expect("register");
    }
    // A few grace slots beyond the client horizon so the final uploads
    // are ingested before shutdown.
    host.run_realtime(SLOTS + 5, SLOT, None, None);
    host.shutdown();
    let (_, server_report) = host.reports().remove(0);

    let client_reports = driver.join().expect("client thread");

    assert_eq!(server_report.counters.joins, 2);
    assert_eq!(server_report.counters.protocol_errors, 0);
    let mut user_ids: Vec<_> = client_reports.iter().map(|r| r.user_id).collect();
    user_ids.sort_unstable();
    assert_eq!(user_ids, vec![0, 1]);
    for report in &client_reports {
        assert!(report.welcomed, "client {} never welcomed", report.seed);
        assert_eq!(report.protocol_errors, 0);
        assert!(
            report.assignments > SLOTS / 2,
            "client {} got only {} assignments",
            report.seed,
            report.assignments
        );
        assert!(report.summary.slots > 0);
    }
}
