//! The two kinds of run: the timed pass (end-to-end metrics, tracing
//! off) and the traced pass (per-layer metrics: spans, taps, probes).

use std::path::Path;

use crate::calib;
use crate::measure::{
    best_of, block_faults, block_metrics, mean_of, over_windows, peak_rss_mb, reset_peak_rss,
    BlockMetrics,
};
use crate::probes;
use crate::report::RunResult;
use crate::spans::{self, now_ns, Recorder, SelfTime};
use crate::stats::{median, percentiles_us};
use crate::workloads::{run_lockstep_block, run_paced_block, sub_seed, Mode, Workload};

/// The line that carries one sub-seed's fingerprints and QoE, with all
/// their digits, to the suite (the result line itself has a fixed
/// shape). The same seed must print the same lines on every run.
fn print_fingerprint(w: &Workload, sub: usize, m: &BlockMetrics) {
    let checkpoint = m
        .checkpoint
        .map_or("none".to_string(), |c| format!("{c:016x}"));
    println!(
        "fingerprint {} sub={sub} checkpoint={checkpoint} full={:016x} quality={} qoe={}",
        w.name, m.fingerprint, m.displayed_quality_mean, m.qoe_per_slot_mean
    );
}

/// The timed pass: `Workload::repeats` rounds of one block per sub-seed,
/// back to back. The block count is fixed, not fitted to `seconds`
/// (which scales the slots per block), so that every build gets the same
/// number of repeats to take its best from; only a host or a build so
/// slow that the run has overrun `seconds` by a fifth stops early, after
/// a whole round, and says so. Every block times the calibration
/// kernel once, and the run's timings are reported at reference speed.
///
/// # Errors
///
/// Propagates fleet set-up failures.
pub fn timed_run(w: &Workload, seed: u64, seconds: f64) -> std::io::Result<RunResult> {
    let slots = w.scaled_block_slots(seconds);
    let run_start = now_ns();
    let budget_ns = (seconds * 1.2e9) as u64;
    let mut repeats: Vec<Vec<BlockMetrics>> = vec![Vec::new(); w.sub_seeds];
    let mut kernel_us: Vec<f64> = Vec::new();
    let mut rss_mb: Vec<f64> = Vec::new();
    let mut faults: Vec<String> = Vec::new();
    for round in 0..w.repeats {
        if round > 0 && now_ns() - run_start > budget_ns {
            println!(
                "{}: out of time after {round} of {} rounds",
                w.name, w.repeats
            );
            break;
        }
        for (sub, collected) in repeats.iter_mut().enumerate() {
            reset_peak_rss();
            let block = if w.paced {
                run_paced_block(w, sub_seed(seed, sub), slots, round)?
            } else {
                run_lockstep_block(w, sub_seed(seed, sub), slots, Mode::Timed)?
            };
            kernel_us.push(block.kernel_us);
            rss_mb.push(peak_rss_mb());
            let metrics = block_metrics(w, &block);
            faults.extend(block_faults(w, &block, &metrics));
            println!(
                "block {round}.{sub}: setup {:.4} s, {:.1} slots/s, pose->frame p50 {:.2} p95 \
                 {:.2} us, slot work p50 {:.3} us, on time {:.5}",
                metrics.setup_s,
                metrics.slots_per_s,
                metrics.pose_to_frame_us_p50,
                metrics.pose_to_frame_us_p95,
                metrics.slot_work_us_p50,
                metrics.slots_on_time_fraction()
            );
            collected.push(metrics);
        }
    }
    // Closed-loop repeats replay one seed over one slot count: any
    // difference between their frames is lost determinism.
    if !w.paced
        && repeats
            .iter()
            .any(|r| r.iter().any(|b| b.fingerprint != r[0].fingerprint))
    {
        faults.push("repeats of one sub-seed received different frames".to_string());
    }
    let reduce = if w.paced { over_windows } else { best_of };
    let per_sub_seed: Vec<BlockMetrics> = repeats.iter().map(|r| reduce(r)).collect();
    let slowdown = calib::slowdown(&kernel_us);
    let run = mean_of(&per_sub_seed).at_reference_speed(slowdown, w.paced);
    // The paced fleet exists to load the failover and degrade ingest
    // paths: a run whose links never failed over measured clean links.
    if w.paced {
        println!(
            "{}: {} link switches, {} degraded transitions over {:.1} s of every link trace",
            w.name,
            run.link_switches,
            run.degraded_transitions,
            repeats[0].len() as f64 * w.paced_window_s(slots)
        );
        if run.link_switches == 0 || run.degraded_transitions == 0 {
            faults.push("the impaired links never failed over or never degraded".to_string());
        }
    }
    for fault in &faults {
        eprintln!("FAULT {}: {fault}", w.name);
    }
    println!(
        "{}: {} blocks x {} slots over {} sub-seeds (slot scale {:.3}) in {:.1} s, {} latency \
         samples",
        w.name,
        repeats.iter().map(Vec::len).sum::<usize>(),
        slots,
        w.sub_seeds,
        slots as f64 / w.block_slots as f64,
        (now_ns() - run_start) as f64 / 1e9,
        run.latency_samples
    );
    println!(
        "calibration: kernel p25 {:.1} us over {} runs, reference {:.0} us: host {:.4}x \
         reference time, timings below are at reference speed",
        slowdown * calib::REFERENCE_US,
        kernel_us.len(),
        calib::REFERENCE_US,
        slowdown
    );
    for (sub, metrics) in per_sub_seed.iter().enumerate() {
        print_fingerprint(w, sub, metrics);
    }
    Ok(RunResult {
        correct: faults.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        values: vec![
            ("setup_s", run.setup_s),
            ("slots_per_s", run.slots_per_s),
            ("pose_to_frame_us_p50", run.pose_to_frame_us_p50),
            ("pose_to_frame_us_p95", run.pose_to_frame_us_p95),
            ("slot_work_us_p50", run.slot_work_us_p50),
            ("slots_on_time_fraction", run.slots_on_time_fraction()),
            ("displayed_quality_mean", run.displayed_quality_mean),
            ("qoe_per_slot_mean", run.qoe_per_slot_mean),
            // Each block's own watermark.
            ("peak_rss_mb", median(&rss_mb)),
        ],
    })
}

fn mean_over<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        0.0
    } else {
        items.iter().map(f).sum::<f64>() / items.len() as f64
    }
}

fn per(total: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

/// Mean of the `cvr_lookahead_fov_overlap{h}` histogram in a rendered
/// metrics body, as a share of the four tiles (0 when the series is
/// absent, i.e. at `horizon = 1`).
fn fov_overlap_mean(rendered: &str, h: usize) -> f64 {
    let series = |suffix: &str| -> f64 {
        let prefix = format!("cvr_lookahead_fov_overlap_{suffix}{{h=\"{h}\"}} ");
        rendered
            .lines()
            .filter_map(|line| line.strip_prefix(prefix.as_str()))
            .filter_map(|v| v.trim().parse::<f64>().ok())
            .sum()
    };
    let count = series("count");
    if count == 0.0 {
        0.0
    } else {
        series("sum") / count / 4.0
    }
}

/// The traced pass. All of it is single-threaded lockstep, at a fraction
/// of the timed length: an untraced reference block, one with the
/// program's own trace ring on, one under the benchmark's spans and taps
/// (whose recorded inputs feed the probes), and a short block on another
/// seed for the fingerprint gate. The paced workload adds a short paced
/// block for the ticker and load-generator figures. Spans are written to
/// `out_dir/trace-<workload>.jsonl` after all timing has ended.
///
/// # Errors
///
/// Propagates fleet set-up failures and trace-file I/O errors.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> std::io::Result<RunResult> {
    // The traced pass replays the timed pass's first sub-seed, so the two
    // processes can be held to the same first frames.
    let other_seed = sub_seed(seed, 1);
    let seed = sub_seed(seed, 0);
    let scaled = w.scaled_block_slots(seconds);
    // Four blocks' worth of slots in one block: about a tenth of what the
    // timed pass runs in its 36–72 blocks. Lockstep slots of the paced
    // fleet cost a fifth of their paced length, so it runs three times
    // that: 13 s of its link traces.
    let slots = if w.paced { scaled * 12 } else { scaled * 4 };
    let mut faults: Vec<String> = Vec::new();

    let reference = run_lockstep_block(w, seed, slots, Mode::Timed)?;
    let reference_m = block_metrics(w, &reference);
    faults.extend(block_faults(w, &reference, &reference_m));

    let obs = run_lockstep_block(w, seed, slots, Mode::ObsTracing)?;
    let obs_m = block_metrics(w, &obs);
    faults.extend(block_faults(w, &obs, &obs_m));
    // Layer figures are reported as measured; the calibration kernel,
    // timed around the traced block, relates them to reference speed.
    let mut kernel_us = vec![reference.kernel_us, obs.kernel_us, calib::kernel_us()];
    drop(obs);

    // Spans per sampled slot: a round, a step per client with its
    // transport calls, the server's steps and theirs.
    let spans_per_slot = 8 + 24 * w.clients() as u64;
    spans::install(Recorder::sized_for(400_000, slots, spans_per_slot));
    let traced = run_lockstep_block(w, seed, slots, Mode::Traced)?;
    let recorder = spans::take().expect("recorder installed above");
    kernel_us.push(calib::kernel_us());
    let traced_m = block_metrics(w, &traced);
    faults.extend(block_faults(w, &traced, &traced_m));

    // Same seed, same slots: the three blocks must have received the
    // same frames, tracing or not. Another seed must not.
    if reference_m.fingerprint != obs_m.fingerprint
        || reference_m.fingerprint != traced_m.fingerprint
    {
        faults.push("tracing changed the frames clients received".to_string());
    }
    let other = run_lockstep_block(w, other_seed, 32, Mode::Timed)?;
    let other_m = block_metrics(w, &other);
    faults.extend(block_faults(w, &other, &other_m));
    if other_m.checkpoint.is_some() && other_m.checkpoint == reference_m.checkpoint {
        faults.push("another seed produced the same frames".to_string());
    }
    drop(other);

    // Deadline, ticker and load-generator figures need real pacing.
    let paced = if w.paced {
        let block = run_paced_block(w, seed, scaled, 0)?;
        let metrics = block_metrics(w, &block);
        faults.extend(block_faults(w, &block, &metrics));
        Some((block, metrics))
    } else {
        None
    };
    let (real, real_m) = match &paced {
        Some((block, metrics)) => (block, metrics),
        None => (&reference, &reference_m),
    };

    let (self_times, stalled_rounds) = recorder.self_times();
    let span = |name: &str| self_times.get(name).copied().unwrap_or_default();
    let span_mean_us = |s: SelfTime| per(s.total_ns, s.count) / 1e3;

    let total_slots = traced.step_total.1;
    let session_slots = total_slots * w.sessions as u64;
    let server_step_us = per(traced.session_step.0, traced.session_step.1) / 1e3;
    let stage = |f: fn(&cvr_serve::server::ServeReport) -> f64| mean_over(&traced.reports, f);
    let stages = [
        ("serve.server.ingest_us", stage(|r| r.ingest.mean_us)),
        ("serve.server.build_us", stage(|r| r.build.mean_us)),
        ("core.engine.density_us", stage(|r| r.density.mean_us)),
        ("core.engine.value_us", stage(|r| r.value.mean_us)),
        ("serve.server.transmit_us", stage(|r| r.transmit.mean_us)),
    ];
    let staged_us: f64 = stages.iter().map(|(_, us)| us).sum();

    let sum_client =
        |f: fn(&crate::tap::ClientLog) -> u64| -> u64 { traced.client_logs.iter().map(f).sum() };
    let sum_server =
        |f: fn(&crate::tap::ServerLog) -> u64| -> u64 { traced.server_logs.iter().map(f).sum() };
    let frames_received = sum_client(|l| l.unicast_frames + l.group_frames);
    let shard_step = span("serve.shard.step");
    let shard_us_per_session = span_mean_us(shard_step) / w.sessions as f64;
    let poll = span("serve.readiness.poll");
    let mut late = real.late_ns.clone();
    let late_us = percentiles_us(&mut late, &[50.0, 95.0]);
    let overhead_pct = |with: &BlockMetrics| {
        (reference_m.slots_per_s - with.slots_per_s) / reference_m.slots_per_s * 100.0
    };

    let mut values: Vec<(&'static str, f64)> = vec![
        (
            "serve.client.step_us",
            per(traced.client_step.0, traced.client_step.1) / 1e3,
        ),
        (
            "serve.client.recv_ns_per_frame",
            per(sum_client(|l| l.recv_ns), frames_received),
        ),
        (
            "serve.client.send_ns_per_frame",
            per(sum_client(|l| l.send_ns), sum_client(|l| l.frames_up)),
        ),
        ("serve.server.step_us", server_step_us),
        // Everything `step_slot` does outside its five timed stages
        // (admission, the prefetch pass, bookkeeping) — printed, never
        // folded into a neighbour.
        ("serve.server.unattributed_us", server_step_us - staged_us),
        (
            "mcast.group.groups_per_slot",
            per(traced.multicast_groups_sum, traced.slots),
        ),
        (
            "mcast.group.shared_frame_ratio",
            per(sum_client(|l| l.group_frames), frames_received),
        ),
        (
            "lookahead.fov_overlap_mean.h1",
            fov_overlap_mean(&traced.rendered, 1),
        ),
        (
            "lookahead.fov_overlap_mean.h2",
            fov_overlap_mean(&traced.rendered, 2),
        ),
        (
            "lookahead.fov_overlap_mean.h3",
            fov_overlap_mean(&traced.rendered, 3),
        ),
        // Counted over the long lockstep block: it replays the most of
        // the link traces.
        ("net.multilink.switches", traced_m.link_switches as f64),
        ("net.impair.generate_ms", traced.impair_generate_ms),
        (
            "serve.protocol.frames_up_per_slot",
            per(sum_server(|l| l.frames_up), session_slots),
        ),
        (
            "serve.protocol.frames_down_per_slot",
            per(sum_server(|l| l.frames_down), session_slots),
        ),
        (
            "serve.transport.recv_ns_per_frame",
            per(sum_server(|l| l.recv_ns), sum_server(|l| l.frames_up)),
        ),
        (
            "serve.transport.send_ns_per_frame",
            per(sum_server(|l| l.send_ns), sum_server(|l| l.frames_down)),
        ),
        (
            "serve.transport.queue_depth_max",
            traced
                .server_logs
                .iter()
                .map(|l| l.queue_depth_max)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "serve.transport.frames_dropped",
            sum_server(|l| l.dropped) as f64,
        ),
        // Two polls bracket every slot.
        (
            "serve.readiness.poll_us_per_slot",
            per(poll.total_ns, poll.count / 2) / 1e3,
        ),
        ("serve.shard.step_us_per_session", shard_us_per_session),
        (
            "serve.shard.overhead_us_per_slot",
            if shard_step.count == 0 {
                0.0
            } else {
                shard_us_per_session - server_step_us
            },
        ),
        (
            "serve.ticker.work_us_p50",
            median(
                &real
                    .reports
                    .iter()
                    .map(|r| r.tick.p50_us)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "serve.ticker.work_us_p99",
            median(
                &real
                    .reports
                    .iter()
                    .map(|r| r.tick.p99_us)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "serve.ticker.overruns",
            real.reports
                .iter()
                .map(|r| r.counters.tick_overruns)
                .sum::<u64>() as f64,
        ),
        (
            "serve.server.degraded_transitions",
            traced_m.degraded_transitions as f64,
        ),
        ("obs.registry.render_us", traced.render_us),
        ("obs.trace.overhead_pct", overhead_pct(&obs_m)),
        (
            "serve.client.pose_to_frame_us_p99",
            real_m.pose_to_frame_us_p99,
        ),
        (
            "serve.client.pose_to_frame_us_max",
            real_m.pose_to_frame_us_max,
        ),
        (
            "serve.client.failed_frame_fraction",
            per(real_m.failed, real_m.attempted),
        ),
        ("bench.loadgen.late_us_p50", late_us[0]),
        ("bench.loadgen.late_us_p95", late_us[1]),
        ("bench.trace.overhead_pct", overhead_pct(&traced_m)),
        (
            "bench.calibration.kernel_us",
            calib::slowdown(&kernel_us) * calib::REFERENCE_US,
        ),
    ];
    values.extend(stages);
    values.extend(probes::run(w, &traced));

    // The workloads must separate the layers as designed.
    let value_of = |name: &str| values.iter().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
    let uses_sockets = w.link == crate::workloads::Link::Tcp;
    if (value_of("serve.readiness.poll_us_per_slot") > 0.0) != uses_sockets {
        faults.push("readiness time on the wrong workloads".to_string());
    }
    if (value_of("mcast.group.groups_per_slot") > 0.0) != w.multicast {
        faults.push("multicast groups on the wrong workloads".to_string());
    }
    // (Degrades are too few in this short pass — a handful — to gate on;
    // the timed pass, ten times the trace length, does.)
    if (value_of("net.multilink.switches") > 0.0) != w.paced {
        faults.push("link failovers on the wrong workloads".to_string());
    }

    // Timing is over: now, and only now, the spans go to disk.
    std::fs::create_dir_all(out_dir)?;
    let trace_path = out_dir.join(format!("trace-{}.jsonl", w.name));
    recorder.write_jsonl(&trace_path)?;

    for fault in &faults {
        eprintln!("FAULT {}: {fault}", w.name);
    }
    println!(
        "{}: traced {} slots, 1 slot in {} sampled, {} spans -> {}; {} latency samples behind \
         p99/max; self times below leave out {} rounds a host stall hit",
        w.name,
        slots,
        recorder.sample_every(),
        recorder.spans().len(),
        trace_path.display(),
        real_m.latency_samples,
        stalled_rounds,
    );
    for (name, st) in &self_times {
        println!(
            "self-time {:<26} n={:<8} total {:>10.1} us  self {:>10.1} us",
            name,
            st.count,
            st.total_ns as f64 / 1e3,
            st.self_ns as f64 / 1e3
        );
    }
    print_fingerprint(w, 0, &traced_m);
    Ok(RunResult {
        correct: faults.is_empty(),
        attempted: traced_m.attempted,
        failed: traced_m.failed,
        values,
    })
}
