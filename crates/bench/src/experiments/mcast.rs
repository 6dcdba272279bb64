//! Multicast classroom benchmark: sweeps co-located user counts through
//! the shipped server — one live `Session` in lockstep with one loopback
//! `ReplayClient` per user — at a fixed 400 Mbps server budget, unicast
//! vs multicast, and proves two properties the gate asserts
//! (`BENCH_mcast.json`, `mcast_classroom.csv`):
//!
//! * **gain** — shared-FoV dedup lifts delivered quality (≥1.2× at 32
//!   users) while putting *fewer* megabits on the wire;
//! * **singleton parity** — a classroom of one (every group has exactly
//!   one member) is bit-identical to the unicast path, the end-to-end
//!   face of the Theorem-1 parity guarantee.
//!
//! Delivered quality is the clients' own displayed-quality mean; wire
//! megabits are the session's `cvr_sent_bits_total`, which counts a
//! shared `GroupAssign` payload once per delivered quality.

use cvr_bench::json::Json;
use cvr_bench::{FigureArgs, Table};
use cvr_core::fnv;
use cvr_serve::client::{ClientConfig, ReplayClient};
use cvr_serve::server::{ServeConfig, Session};
use cvr_serve::transport::loopback;

/// Co-located classroom sizes the paper's density argument spans.
const USER_SWEEP: [usize; 4] = [8, 16, 32, 64];

/// Co-gazing clusters: the members of a cluster replay one trace.
const CLUSTERS: usize = 4;

/// One classroom run's aggregates.
struct Classroom {
    /// Mean over clients of their displayed-quality mean (1-based level).
    quality: f64,
    /// Megabits the session encoded onto the wire.
    wire_mbit: f64,
    /// Peak number of ≥2-member groups in any slot (0 in unicast mode).
    peak_groups: usize,
}

/// Runs `users` phones, in [`CLUSTERS`] co-gazing clusters reporting
/// 50 Mbps each, against one 400 Mbps session at H = 1 for `slots`
/// lockstep slots: every client steps, then the session.
fn classroom(users: usize, multicast: bool, slots: u64, seed: u64) -> Classroom {
    let config = ServeConfig {
        server_total_mbps: 400.0,
        max_users: users,
        multicast,
        ..ServeConfig::default()
    };
    let queue_frames = config.outbound_queue_frames;
    let mut session = Session::new(config);
    let mut clients: Vec<_> = (0..users)
        .map(|u| {
            let (server_end, client_end) = loopback(queue_frames);
            session.add_connection(Box::new(server_end));
            let config = ClientConfig {
                seed: fnv::fold_u64(seed, (u % CLUSTERS) as u64),
                bandwidth_mbps: 50.0,
                ..ClientConfig::default()
            };
            ReplayClient::new(client_end, config)
        })
        .collect();
    let mut peak_groups = 0;
    for _ in 0..slots {
        for client in &mut clients {
            client.step_slot();
        }
        session.step_slot();
        peak_groups = peak_groups.max(session.multicast_groups());
    }
    session.shutdown();
    let quality = clients
        .into_iter()
        .map(|client| client.finish().displayed_quality.mean)
        .sum::<f64>()
        / users as f64;
    Classroom {
        quality,
        wire_mbit: session.counters().sent_bits as f64 / 1e6,
        peak_groups,
    }
}

/// Runs the sweep and returns the `BENCH_mcast.json` document.
///
/// # Panics
///
/// Panics if a one-member group differs from unicast.
pub fn mcast_bench(args: &FigureArgs) -> Json {
    let slots = ((200.0 * args.scale) as u64).max(60);
    println!("# Multicast classroom — {slots} slots, 400 Mbps budget\n");

    // Singleton parity: with one user every staged row is a one-member
    // group, which must be bit-identical to the unicast staging.
    let uni_alone = classroom(1, false, slots, args.seed);
    let multi_alone = classroom(1, true, slots, args.seed);
    let singleton_parity = multi_alone.peak_groups == 0
        && multi_alone.quality.to_bits() == uni_alone.quality.to_bits()
        && multi_alone.wire_mbit.to_bits() == uni_alone.wire_mbit.to_bits();

    let mut table = Table::begin(&[
        ("users", "users"),
        ("uni_q", "unicast_quality"),
        ("multi_q", "multicast_quality"),
        ("gain", "gain"),
        ("uni_mbit", "unicast_wire_mbit"),
        ("multi_mbit", "multicast_wire_mbit"),
        ("groups", "peak_groups"),
    ]);
    for users in USER_SWEEP {
        let uni = classroom(users, false, slots, args.seed);
        let multi = classroom(users, true, slots, args.seed);
        table.row(vec![
            users.into(),
            uni.quality.into(),
            multi.quality.into(),
            (multi.quality / uni.quality).into(),
            uni.wire_mbit.into(),
            multi.wire_mbit.into(),
            multi.peak_groups.into(),
        ]);
    }
    println!();
    println!("singleton unicast parity: {singleton_parity}");
    assert!(
        singleton_parity,
        "one-member groups are not bit-identical to unicast"
    );

    if let Some(dir) = &args.csv_dir {
        table.write_csv(dir, "mcast_classroom.csv");
    }
    Json::object([
        ("bench", "mcast_classroom".into()),
        ("slots", (slots as usize).into()),
        ("server_total_mbps", 400.0.into()),
        ("singleton_parity", singleton_parity.into()),
        ("rows", table.json_rows().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_beats_unicast_in_a_crowded_classroom() {
        let uni = classroom(32, false, 60, 2022);
        let multi = classroom(32, true, 60, 2022);
        assert!(multi.peak_groups >= 1, "groups must form");
        assert!(
            multi.quality >= 1.2 * uni.quality,
            "multicast {} vs unicast {}",
            multi.quality,
            uni.quality
        );
        assert!(multi.wire_mbit < uni.wire_mbit, "dedup must cut wire bytes");
    }

    #[test]
    fn unicast_mode_never_groups() {
        assert_eq!(classroom(8, false, 20, 2022).peak_groups, 0);
    }
}
