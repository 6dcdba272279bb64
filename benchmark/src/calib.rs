//! Host-speed calibration.
//!
//! On a shared host the same code runs at a different speed from one
//! minute to the next: ten runs of one commit spread over 5–10 % in every
//! timing, and all four workloads drift together. Nothing measured inside
//! one run can average out a drift that outlasts the run, so each block
//! of a timed run also times a fixed kernel that shares no code with the
//! program — between its warm-up and its timed slots, when the processor
//! is awake even in the paced workload — and the run reports its timings
//! at *reference speed*: durations are divided, and rates multiplied, by
//! `kernel time here ÷ REFERENCE_US`. A regression in the program slows
//! the blocks but not the kernel, so it shows in full; a slow spell of
//! the host slows both and cancels. On ten-run sets this halved the
//! spread of the closed-loop timings or better.

use crate::spans::now_ns;
use crate::stats::nearest_rank;

/// Words in the kernel's table: 128 KiB, resident in L2 like the
/// closed-loop workloads' hot state.
const TABLE_WORDS: usize = 16_384;

/// Steps per kernel run: about 2 ms, short against a block.
const STEPS: u32 = 400_000;

/// What one kernel run takes on the host the bounds in `BENCHMARK.json`
/// were sized on, when that host is quiet. Reference speed is the speed
/// at which the kernel takes exactly this long.
pub const REFERENCE_US: f64 = 2150.0;

/// Runs the kernel once and returns its wall time in microseconds: a
/// xorshift walk over the table with a dependent load, a data-dependent
/// branch and a store per step — integer work, L2 traffic and branch
/// misses in roughly the mix of the serve loop.
pub fn kernel_us() -> f64 {
    let mut table: Vec<u64> = (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let start = now_ns();
    let mut x: u64 = 88_172_645_463_325_252;
    let mut acc: u64 = 0;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize % TABLE_WORDS;
        let v = table[i];
        acc = acc.wrapping_add(v ^ x).rotate_left(5);
        if v & 1 == 0 {
            table[i] = v.wrapping_add(acc);
        } else {
            table[(i + 1) % TABLE_WORDS] ^= acc;
        }
    }
    std::hint::black_box((acc, &table));
    (now_ns() - start) as f64 / 1e3
}

/// How slow the host ran against reference speed, from a run's kernel
/// times: their lower quartile ÷ [`REFERENCE_US`] (above 1 = slower).
/// The lower quartile, because block timings take the least-disturbed
/// repeat: both describe the host between bursts of interference, and a
/// quartile, unlike the minimum, does not hang on one lucky sample.
/// 1.0 when there are no samples.
pub fn slowdown(kernel_us: &[f64]) -> f64 {
    let mut sorted = kernel_us.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 25.0).map_or(1.0, |us| us / REFERENCE_US)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_lower_quartile_over_the_reference() {
        // Eight samples: nearest-rank p25 is the 2nd smallest.
        let samples = [
            4300.0, 2150.0, 9999.0, 1000.0, 4300.0, 4300.0, 4300.0, 4300.0,
        ];
        assert_eq!(slowdown(&samples), 1.0);
        assert_eq!(slowdown(&[4300.0]), 2.0);
        assert_eq!(slowdown(&[]), 1.0);
    }
}
