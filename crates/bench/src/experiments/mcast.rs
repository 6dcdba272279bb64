//! Multicast classroom benchmark: sweeps co-located user counts through
//! `cvr_sim::mcast` at a fixed 400 Mbps server budget, unicast vs
//! multicast, and proves three properties the gate asserts
//! (`BENCH_mcast.json`, `mcast_classroom.csv`):
//!
//! * **gain** — shared-FoV dedup lifts delivered quality (≥1.2× at 32
//!   users) while putting *fewer* megabits on the wire;
//! * **determinism** — every multicast run executed a second time
//!   reproduces the same FNV-1a fingerprint bit for bit;
//! * **singleton parity** — a classroom of one (every group has exactly
//!   one member) is bit-identical to the unicast path, the end-to-end
//!   face of the Theorem-1 parity guarantee.

use cvr_bench::json::Json;
use cvr_bench::{FigureArgs, Table};
use cvr_sim::mcast::{run, McastConfig};

/// Co-located classroom sizes the paper's density argument spans.
const USER_SWEEP: [usize; 4] = [8, 16, 32, 64];

/// Runs the sweep and returns the `BENCH_mcast.json` document.
///
/// # Panics
///
/// Panics if a repeated run differs from the first or a one-member group
/// differs from unicast.
pub fn mcast_bench(args: &FigureArgs) -> Json {
    let slots = ((200.0 * args.scale) as u64).max(60);
    println!("# Multicast classroom — {slots} slots, 400 Mbps budget\n");

    let configured = |users: usize, multicast: bool| McastConfig {
        slots,
        seed: args.seed,
        ..McastConfig::classroom(users, multicast)
    };

    // Singleton parity: with one user every staged row is a one-member
    // group, which must be bit-identical to the unicast staging.
    let uni_alone = run(&configured(1, false));
    let multi_alone = run(&configured(1, true));
    let singleton_parity = multi_alone.peak_multicast_groups == 0
        && multi_alone.delivered_quality.to_bits() == uni_alone.delivered_quality.to_bits()
        && multi_alone.wire_mbit.to_bits() == uni_alone.wire_mbit.to_bits();

    let mut table = Table::begin(&[
        ("users", "users"),
        ("uni_q", "unicast_quality"),
        ("multi_q", "multicast_quality"),
        ("gain", "gain"),
        ("uni_mbit", "unicast_wire_mbit"),
        ("multi_mbit", "multicast_wire_mbit"),
        ("groups", "peak_groups"),
        ("grp_size", "mean_group_size"),
        ("", "fingerprint_main"),
        ("", "fingerprint_check"),
    ]);
    let mut deterministic = true;
    for users in USER_SWEEP {
        let uni = run(&configured(users, false));
        let multi = run(&configured(users, true));
        let check = run(&configured(users, true));
        deterministic &= multi.fingerprint == check.fingerprint;
        table.row(vec![
            users.into(),
            uni.delivered_quality.into(),
            multi.delivered_quality.into(),
            (multi.delivered_quality / uni.delivered_quality).into(),
            uni.wire_mbit.into(),
            multi.wire_mbit.into(),
            multi.peak_multicast_groups.into(),
            multi.mean_group_size.into(),
            format!("{:#018x}", multi.fingerprint).into(),
            format!("{:#018x}", check.fingerprint).into(),
        ]);
    }
    println!();
    println!("determinism across repeated runs: {deterministic}");
    println!("singleton unicast parity: {singleton_parity}");
    assert!(
        deterministic,
        "multicast classroom diverged between two runs"
    );
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
        ("deterministic", deterministic.into()),
        ("singleton_parity", singleton_parity.into()),
        ("rows", table.json_rows().into()),
    ])
}
