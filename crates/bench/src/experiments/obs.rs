//! Observability-overhead benchmark: replays the session's slot hot path
//! (the `SlotPlanner` build — `begin_slot` → `push_user` → `stage`, which
//! prices Eq. (9) with the session's delay model — and the engine's solve
//! on synthetic motion workloads) with `cvr-obs`
//! instrumentation disabled and enabled (`BENCH_obs.json`).
//!
//! The gated claim is that observability is cheap enough to leave on in
//! production: per-slot registry observations in the session's default
//! configuration (registry on, tracer disabled — every `record` call
//! still executes and pays its one branch) must cost ≤ 2 % of the
//! uninstrumented slot loop. A third mode additionally enables the
//! sampled tracer and is reported as `traced_overhead_pct`,
//! informational. All modes execute the identical workload and the
//! identical per-slot `Instant` probes (the "off" mode black-boxes the
//! nanosecond values instead of recording them), so the measured delta
//! is purely the observe/inc/record cost. The modes replay each
//! 250-slot batch back to back (order rotating per rep) and each batch
//! keeps its per-mode minimum across reps, which cancels
//! frequency/thermal drift (it hits all modes of a batch equally) and
//! discards scheduler preemption spikes (they land in one batch of one
//! rep) — whole-pass timing on a busy single-core CI host is noisier
//! than the ~1 % effect being measured.

use std::hint::black_box;
use std::time::Instant;

use cvr_bench::json::Json;
use cvr_bench::{Cell, FigureArgs, Table};
use cvr_core::objective::QoeParams;
use cvr_core::stage::CONTROL_OVERHEAD_MBPS;
use cvr_motion::accuracy::DeltaEstimator;
use cvr_motion::pose::Pose;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use cvr_obs::trace::EventKind;
use cvr_obs::{latency_bounds_ns, Registry, TraceEvent, Tracer};
use cvr_sim::pipeline::{mm1_delay, SlotPlanner, PROPAGATION_S};
use cvr_sim::ObjectiveMode;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Measured repetitions per setup; each batch keeps its per-mode minimum.
const REPS: usize = 9;

/// Stage-event sampling window, matching the serve session's tracer.
const STAGE_SAMPLE_EVERY: u32 = 16;

/// The serve session's slot, seconds.
const SLOT_S: f64 = 0.015;

/// Pre-generated per-slot inputs so generation cost stays out of the
/// timed loops.
struct Workload {
    name: &'static str,
    users: usize,
    server_budget: f64,
    slots: usize,
    poses: Vec<Pose>,
    links: Vec<f64>,
}

impl Workload {
    fn generate(
        name: &'static str,
        users: usize,
        server_budget: f64,
        slots: usize,
        seed: u64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut motion: Vec<MotionGenerator> = (0..users)
            .map(|u| {
                MotionGenerator::new(
                    MotionConfig::paper_default(),
                    seed.wrapping_mul(0xA24B_AED4).wrapping_add(u as u64),
                )
            })
            .collect();
        let mut poses = Vec::with_capacity(slots * users);
        let mut links = Vec::with_capacity(slots * users);
        for _ in 0..slots {
            for g in &mut motion {
                poses.push(g.step());
                links.push(rng.gen_range(20.0..100.0));
            }
        }
        Workload {
            name,
            users,
            server_budget,
            slots,
            poses,
            links,
        }
    }

    /// A myopic unicast planner (the session's default) with every user
    /// joined.
    fn planner(&self) -> SlotPlanner {
        let mut planner =
            SlotPlanner::new(1, 0, QoeParams::system_default(), DeltaEstimator::ewma());
        for u in 0..self.users {
            planner.join(u);
        }
        planner
    }

    /// Stages one slot into the planner's engine (build phase of the hot
    /// path), as the session's plan step does.
    fn stage_into(&self, slot: usize, planner: &mut SlotPlanner) {
        planner.begin_slot(slot as u64, self.server_budget);
        let first = slot * self.users;
        for u in 0..self.users {
            planner.push_user(u, &self.poses[first + u], self.links[first + u], false);
        }
        planner.stage(
            CONTROL_OVERHEAD_MBPS,
            ObjectiveMode::DelayAware,
            |_, bn| mm1_delay(bn, PROPAGATION_S / SLOT_S),
            |_| 1.0,
        );
    }
}

/// The instrumentation applied in the instrumented modes: the same
/// registry families the serve session wires around its slot loop, plus
/// a tracer that is either disabled (the session's default — every
/// `record` call still executes and pays its one branch, which is the
/// "~free when disabled" claim) or enabled with the session's sampling.
struct Obs {
    registry: Registry,
    tracer: Tracer,
    h_build: cvr_obs::registry::HistogramId,
    h_solve: cvr_obs::registry::HistogramId,
    c_ticks: cvr_obs::registry::CounterId,
}

impl Obs {
    fn new(tracing: bool) -> Self {
        let mut registry = Registry::default();
        let bounds = latency_bounds_ns();
        let h_build = registry.histogram(
            "cvr_slot_stage_ns",
            "stage=\"build\"",
            "Per-slot stage latency, nanoseconds",
            &bounds,
        );
        let h_solve = registry.histogram(
            "cvr_slot_stage_ns",
            "stage=\"solve\"",
            "Per-slot stage latency, nanoseconds",
            &bounds,
        );
        let c_ticks = registry.counter("cvr_ticks_total", "", "Slots executed");
        let tracer = if tracing {
            let mut tracer = Tracer::with_capacity(4096);
            tracer.set_sample_every(EventKind::Stage, STAGE_SAMPLE_EVERY);
            tracer
        } else {
            Tracer::disabled()
        };
        Obs {
            registry,
            tracer,
            h_build,
            h_solve,
            c_ticks,
        }
    }
}

/// Slots per timed batch: small enough that a scheduler preemption only
/// poisons one batch of one rep (the per-batch minimum across reps
/// discards it), large enough to amortise the batch `Instant` pair.
const BATCH_SLOTS: usize = 250;

/// Per-mode replay state: its own planner and assignment fingerprint, so
/// the modes can replay the same batch back to back. The
/// fingerprint folds every per-user assigned level on every slot — any
/// instrumentation-induced divergence in the solver's inputs or outputs
/// shows up as a mode mismatch.
struct ModeState {
    planner: SlotPlanner,
    fingerprint: u64,
}

impl ModeState {
    fn new(w: &Workload) -> Self {
        ModeState {
            planner: w.planner(),
            fingerprint: 0,
        }
    }
}

/// Replays `slots` through one mode and returns the batch's wall time.
/// `obs = None` is the uninstrumented baseline; both modes execute the
/// identical per-slot `Instant` probes.
fn run_batch(
    w: &Workload,
    slots: std::ops::Range<usize>,
    state: &mut ModeState,
    mut obs: Option<&mut Obs>,
) -> f64 {
    let batch_start = Instant::now();
    for slot in slots {
        let t = Instant::now();
        w.stage_into(slot, &mut state.planner);
        let build_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let assignment = state.planner.engine_mut().solve();
        for (user, &level) in assignment.iter().enumerate() {
            state.fingerprint = state
                .fingerprint
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add((user as u64) << 32 | level.get() as u64);
        }
        let solve_ns = t.elapsed().as_nanos() as u64;
        match obs.as_deref_mut() {
            Some(obs) => {
                obs.registry.observe(obs.h_build, build_ns);
                obs.registry.observe(obs.h_solve, solve_ns);
                obs.registry.inc(obs.c_ticks, 1);
                obs.tracer.record(TraceEvent::Stage {
                    slot: slot as u64,
                    stage: "build",
                    ns: build_ns,
                });
                obs.tracer.record(TraceEvent::SlotEnd {
                    slot: slot as u64,
                    work_ns: build_ns + solve_ns,
                    on_time: true,
                });
            }
            None => {
                black_box(build_ns);
                black_box(solve_ns);
            }
        }
    }
    batch_start.elapsed().as_secs_f64()
}

/// Benchmarks one workload into its table row (see the column list in
/// [`obs_bench`]).
fn bench_workload(w: &Workload) -> Vec<Cell> {
    // Mode 1 is the session's production default (registry on, tracer
    // disabled — `record` calls still execute); mode 2 additionally
    // enables the sampled tracer. Mode 1 is what the gate judges.
    let mut obs_metrics = Obs::new(false);
    let mut obs_traced = Obs::new(true);
    let n_batches = w.slots.div_ceil(BATCH_SLOTS);
    let mut best = [
        vec![f64::INFINITY; n_batches],
        vec![f64::INFINITY; n_batches],
        vec![f64::INFINITY; n_batches],
    ];
    let mut identical = true;

    // Warm-up rep (not folded into the minima), then REPS measured reps.
    // Within a rep the modes replay each batch BACK TO BACK (order
    // rotating per rep), so frequency scaling and slow machine phases
    // hit every mode equally; the per-batch minimum across reps then
    // discards scheduler preemption spikes, which land in one batch of
    // one rep — a whole-pass minimum cannot do that once every pass
    // catches some spike.
    for rep in 0..=REPS {
        let mut states = [ModeState::new(w), ModeState::new(w), ModeState::new(w)];
        // `batch` indexes both the slot range and the 2-D minima table,
        // so a plain range loop reads better than iterator adapters.
        #[allow(clippy::needless_range_loop)]
        for batch in 0..n_batches {
            let range = batch * BATCH_SLOTS..((batch + 1) * BATCH_SLOTS).min(w.slots);
            for i in 0..3 {
                let mode = (rep + i) % 3;
                let t = match mode {
                    0 => run_batch(w, range.clone(), &mut states[0], None),
                    1 => run_batch(w, range.clone(), &mut states[1], Some(&mut obs_metrics)),
                    _ => run_batch(w, range.clone(), &mut states[2], Some(&mut obs_traced)),
                };
                if rep > 0 {
                    best[mode][batch] = best[mode][batch].min(t);
                }
            }
        }
        identical &= states[0].fingerprint == states[1].fingerprint
            && states[1].fingerprint == states[2].fingerprint;
    }
    let off_best: f64 = best[0].iter().sum();
    let on_best: f64 = best[1].iter().sum();
    let traced_best: f64 = best[2].iter().sum();

    // Measurement noise can make an instrumented mode land under "off";
    // the gate cares about an upper bound, so clamp the overheads at 0.
    let overhead_pct = ((on_best - off_best) / off_best * 100.0).max(0.0);
    let traced_overhead_pct = ((traced_best - off_best) / off_best * 100.0).max(0.0);
    let observations = match obs_metrics.registry.get("cvr_ticks_total", "") {
        Some(cvr_obs::registry::Value::Counter(n)) => *n,
        _ => 0,
    };
    assert!(
        identical,
        "{}: instrumentation changed solver output",
        w.name
    );
    vec![
        w.name.into(),
        w.users.into(),
        w.slots.into(),
        off_best.into(),
        on_best.into(),
        overhead_pct.into(),
        traced_overhead_pct.into(),
        identical.into(),
        Cell::Int(observations),
    ]
}

/// Runs both setups and returns the `BENCH_obs.json` document.
///
/// # Panics
///
/// Panics if instrumentation changes the solver's output.
pub fn obs_bench(args: &FigureArgs) -> Json {
    // Keep the floor high even under `--quick`: the measured delta is a
    // few nanoseconds per slot, so sub-10 ms walls are all jitter.
    let slots = ((8_000.0 * args.scale) as usize).max(4_000);

    let workloads = [
        Workload::generate("setup1", 8, 400.0, slots, args.seed),
        Workload::generate("setup2", 15, 800.0, slots, args.seed ^ 0xBEEF),
    ];

    println!(
        "# Observability overhead ({slots} slots per setup, per-batch min of {REPS} interleaved reps)\n"
    );
    let mut table = Table::begin(&[
        ("setup", "name"),
        ("users", "users"),
        ("", "slots"),
        ("off s", "off_wall_s"),
        ("on s", "on_wall_s"),
        ("overhead %", "overhead_pct"),
        ("+trace %", "traced_overhead_pct"),
        ("identical", "assignments_identical"),
        ("", "observations"),
    ]);
    for w in &workloads {
        table.row(bench_workload(w));
    }
    println!();

    Json::object([
        ("bench", "obs_overhead".into()),
        ("slots_per_setup", slots.into()),
        ("reps", REPS.into()),
        ("entries", table.json_rows().into()),
    ])
}
