//! The paper's motivating scenario: a VR classroom. A teacher and seven
//! student phones stream tiles from an edge server through one Wi-Fi
//! router (testbed setup 1). The full-system simulator runs the complete
//! pipeline — motion upload, 6-DoF prediction, tile selection, quality
//! allocation, transmission with loss and ACK-driven retransmission
//! suppression, decode/display deadlines — and compares the paper's
//! algorithm against Firefly and modified PAVQ.
//!
//! Run: `cargo run --release --example vr_classroom`

use collaborative_vr::prelude::*;
use collaborative_vr::sim::system;

fn main() {
    let config = SystemConfig {
        duration_s: 30.0,
        ..SystemConfig::setup1(7)
    };
    println!(
        "VR classroom: {} users, {} router(s), {} Mbps server uplink, {:.0} s\n",
        config.num_users,
        config.num_routers,
        config.server_total_mbps(),
        config.duration_s
    );

    println!(
        "{:<10} {:>8} {:>9} {:>7} {:>9} {:>9}",
        "algorithm", "QoE", "quality", "FPS", "delay", "variance"
    );
    for kind in [
        AllocatorKind::DensityValueGreedy,
        AllocatorKind::Pavq,
        AllocatorKind::Firefly,
    ] {
        let result = system::run(&config, kind);
        println!(
            "{:<10} {:>8.3} {:>9.3} {:>7.1} {:>9.3} {:>9.3}",
            kind.label(),
            result.summary.avg_qoe,
            result.summary.avg_quality,
            result.fps,
            result.summary.avg_delay,
            result.summary.avg_variance
        );
        if kind == AllocatorKind::DensityValueGreedy {
            println!("  per-student experience:");
            for (u, s) in result.users.iter().enumerate() {
                println!(
                    "    student {u}: viewed quality {:.2}, FoV+delivery hit rate {:.0}%, QoE {:.2}",
                    s.avg_viewed_quality,
                    100.0 * s.hit_rate,
                    s.qoe_per_slot
                );
            }
        }
    }
    println!("\nExpected: ours leads on QoE and FPS; Firefly trails with the");
    println!("highest variance (its LRU rotation) and delay (it fills the pipe).");
}
