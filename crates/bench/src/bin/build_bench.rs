//! Before/after benchmark of the per-slot problem **build** stage. The
//! "before" path is the build the simulators and live server ran prior to
//! the cached data plane: `library.request_for` per user per slot (cell
//! lookup, FoV trigonometry, a wasted per-request rate table), a
//! `tile_rate_row` hash per visible tile, and an `is_delivered` ledger
//! probe per (tile, level). The "after" path is the cached plane:
//! [`FovRequestCache`] (visible-tile reuse across slots),
//! [`RatePlane`] (each cell's rate rows hashed once, ever), and
//! [`UndeliveredSums`] (per-level undelivered rates maintained
//! incrementally on ACK/Release), staged through the bulk
//! `add_users` + `parallel_chunk_pairs` fill.
//!
//! Both paths replay the *same* recorded pose walks and ACK/Release event
//! streams, and the solver's assignments are verified identical on every
//! slot — also across every benchmarked thread count, since the parallel
//! fill must stage a bit-identical problem. Only the build sections are
//! timed; event application and solving stay outside the clocks. Results
//! go to `BENCH_build.json` at the repository root.
//!
//! A second **staging** tier isolates the per-slot staging stage itself:
//! the "before" path replays the per-slot strided sums walk and the
//! rate/value fill through a verbatim replica of the old tile-major
//! (`levels`-strided) accumulator with the hand-rolled per-level loop;
//! the "after" path runs the production level-major [`UndeliveredSums`]
//! plus the fused [`stage_rates_values`] kernel, which needs no per-slot
//! walk. Event application and retargets stay outside the clocks in both
//! paths (the build tier's convention — that work hashes the same ledger
//! either way, and the build tier times the plane/retarget sections).
//! Both replay identical workloads (min-of-k timing), and per-slot
//! assignment fingerprints must match at every benchmarked thread count.
//!
//! Run: `cargo run -p cvr-bench --release --bin build_bench [--quick]`

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cvr_bench::FigureArgs;
use cvr_content::cache::{DeliveryLedger, UndeliveredSums};
use cvr_content::grid::CellId;
use cvr_content::id::VideoId;
use cvr_content::library::ContentLibrary;
use cvr_content::plane::{FovRequestCache, RatePlane, DEFAULT_PLANE_CELLS};
use cvr_content::sizing::TileSizeModel;
use cvr_content::tile::TileId;
use cvr_core::delay::{DelayModel, Mm1Delay};
use cvr_core::engine::SlotEngine;
use cvr_core::fnv;
use cvr_core::objective::QoeParams;
use cvr_core::quality::QualityLevel;
use cvr_core::stage::{stage_rates_values, stage_rates_values_with, CONTROL_OVERHEAD_MBPS};
use cvr_motion::pose::Pose;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use cvr_sim::parallel::parallel_chunk_pairs;
use cvr_sim::system::sanitize_rates;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Timed repetitions per staging path; the minimum is reported.
const STAGING_REPS: usize = 3;

/// A recorded workload both build paths replay: pose walks from the
/// synthetic motion model plus per-slot ACK/Release event streams that
/// churn the delivery ledgers the way live clients do.
struct Workload {
    name: &'static str,
    users: usize,
    levels: usize,
    server_budget: f64,
    slots: usize,
    library: ContentLibrary,
    params: QoeParams,
    /// `[slot × users]` predicted poses.
    poses: Vec<Pose>,
    /// `[slot × users]` link-budget estimates, Mbps.
    links: Vec<f64>,
    /// `[slot × users]` prediction-accuracy estimates δ.
    deltas: Vec<f64>,
    /// `[slot × users]` (ACKed ids, Released ids) applied before the
    /// slot's build.
    events: Vec<(Vec<VideoId>, Vec<VideoId>)>,
}

impl Workload {
    fn generate(
        name: &'static str,
        users: usize,
        levels: usize,
        server_budget: f64,
        slots: usize,
        seed: u64,
    ) -> Self {
        let library = ContentLibrary::paper_default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut motion: Vec<MotionGenerator> = (0..users)
            .map(|u| {
                MotionGenerator::new(
                    MotionConfig::paper_default(),
                    seed.wrapping_mul(0x9E37_79B9).wrapping_add(u as u64),
                )
            })
            .collect();
        let mut poses = Vec::with_capacity(slots * users);
        let mut links = Vec::with_capacity(slots * users);
        let mut deltas = Vec::with_capacity(slots * users);
        let mut events = Vec::with_capacity(slots * users);
        // Per-user pool of previously ACKed ids a later Release can drain.
        let mut acked: Vec<Vec<VideoId>> = vec![Vec::new(); users];
        for _ in 0..slots {
            for (u, g) in motion.iter_mut().enumerate() {
                let pose = g.step();
                let request = library.request_for(&pose);
                // ACK the current request at a random quality most slots
                // (an earlier slot's manifest arriving), occasionally
                // release a batch of old deliveries (cache eviction on
                // the client).
                let mut acks = Vec::new();
                if rng.gen_bool(0.6) {
                    let q = QualityLevel::new(rng.gen_range(1..=levels) as u8);
                    for &tile in &request.tiles {
                        let id = VideoId::new(request.cell, tile, q);
                        acks.push(id);
                        acked[u].push(id);
                    }
                }
                let mut releases = Vec::new();
                if rng.gen_bool(0.15) && !acked[u].is_empty() {
                    let n = rng.gen_range(1..=acked[u].len());
                    releases.extend(acked[u].drain(..n));
                }
                poses.push(pose);
                links.push(rng.gen_range(20.0..100.0));
                deltas.push(rng.gen_range(0.5..1.0));
                events.push((acks, releases));
            }
        }
        Workload {
            name,
            users,
            levels,
            server_budget,
            slots,
            library,
            params: QoeParams::system_default(),
            poses,
            links,
            deltas,
            events,
        }
    }

    fn at(&self, slot: usize, user: usize) -> usize {
        slot * self.users + user
    }

    /// Replays the pre-plane build: fresh `request_for` per user per slot,
    /// per-tile hashing, per-(tile, level) ledger probes. Returns every
    /// slot's assignments and the total time spent inside build sections.
    fn run_before(&self) -> (Vec<Vec<QualityLevel>>, Duration) {
        let mut engine = SlotEngine::new();
        let mut ledgers: Vec<DeliveryLedger> =
            (0..self.users).map(|_| DeliveryLedger::new()).collect();
        let mut tile_row = vec![0.0f64; self.levels];
        let mut sums_row = vec![0.0f64; self.levels];
        let mut assignments = Vec::with_capacity(self.slots);
        let mut build_time = Duration::ZERO;
        for slot in 0..self.slots {
            for (u, ledger) in ledgers.iter_mut().enumerate() {
                let (acks, releases) = &self.events[self.at(slot, u)];
                for &id in acks {
                    ledger.acknowledge(id);
                }
                ledger.release(releases.iter().copied());
            }

            let t = Instant::now();
            engine.begin_slot(self.server_budget);
            for (u, ledger) in ledgers.iter().enumerate() {
                let i = self.at(slot, u);
                let request = self.library.request_for(&self.poses[i]);
                let bn = self.links[i];
                let delta = self.deltas[i];
                let fallback = Mm1Delay::new(bn).expect("positive link budget");
                let tables = engine.add_user(self.levels, bn);
                sums_row.fill(0.0);
                for &tile in &request.tiles {
                    self.library
                        .sizing()
                        .tile_rate_row(request.cell, tile, &mut tile_row);
                    for l in 1..=self.levels {
                        let q = QualityLevel::new(l as u8);
                        if !ledger.is_delivered(&VideoId::new(request.cell, tile, q)) {
                            sums_row[q.index()] += tile_row[q.index()];
                        }
                    }
                }
                // Same shared kernel as the cached path (and every
                // production site): `rate = sums + overhead` assigned, not
                // `+=` onto the staged row — the two paths cannot diverge
                // on how overhead is charged.
                stage_rates_values_with(
                    &sums_row,
                    CONTROL_OVERHEAD_MBPS,
                    tables.rates,
                    tables.values,
                    |l, raw| {
                        let q = QualityLevel::new((l + 1) as u8);
                        delta * q.value() - self.params.alpha * fallback.delay(raw)
                    },
                );
                sanitize_rates(tables.rates);
            }
            build_time += t.elapsed();

            assignments.push(engine.solve().to_vec());
        }
        (assignments, build_time)
    }

    /// Replays the cached-plane build at a given worker count. Returns the
    /// assignments, total build time, and the plane / FoV-cache hit
    /// statistics summed over all users.
    #[allow(clippy::type_complexity)]
    fn run_after(
        &self,
        threads: usize,
    ) -> (Vec<Vec<QualityLevel>>, Duration, (u64, u64), (u64, u64)) {
        let mut engine = SlotEngine::new();
        let mut ledgers: Vec<DeliveryLedger> =
            (0..self.users).map(|_| DeliveryLedger::new()).collect();
        let mut plane = RatePlane::new(self.library.sizing().clone(), DEFAULT_PLANE_CELLS);
        let mut fov_caches: Vec<FovRequestCache> = (0..self.users)
            .map(|_| FovRequestCache::new(*self.library.fov()))
            .collect();
        let mut undelivered: Vec<UndeliveredSums> = (0..self.users)
            .map(|_| UndeliveredSums::new(self.levels))
            .collect();
        let mut assignments = Vec::with_capacity(self.slots);
        let mut build_time = Duration::ZERO;
        for slot in 0..self.slots {
            for (u, ledger) in ledgers.iter_mut().enumerate() {
                let (acks, releases) = &self.events[self.at(slot, u)];
                for &id in acks {
                    undelivered[u].acknowledge(ledger, id);
                }
                undelivered[u].release(ledger, releases.iter().copied());
            }

            let t = Instant::now();
            for u in 0..self.users {
                let i = self.at(slot, u);
                let cell = self.library.grid().cell_of(&self.poses[i].position);
                let tiles = fov_caches[u].tiles_for(&self.poses[i]);
                if !undelivered[u].targets(cell, tiles) {
                    undelivered[u].retarget(cell, tiles, plane.rows(cell), &ledgers[u]);
                }
            }
            engine.begin_slot(self.server_budget);
            let slot_links = &self.links[slot * self.users..(slot + 1) * self.users];
            engine.add_users(self.levels, slot_links);
            {
                let (rates_table, values_table) = engine.staged_tables_mut();
                let levels = self.levels;
                let alpha = self.params.alpha;
                let deltas = &self.deltas[slot * self.users..(slot + 1) * self.users];
                let undelivered = &undelivered;
                parallel_chunk_pairs(
                    rates_table,
                    values_table,
                    levels,
                    threads,
                    |u, rates, values| {
                        let fallback = Mm1Delay::new(slot_links[u]).expect("positive link budget");
                        let sums = undelivered[u].sums();
                        stage_rates_values_with(
                            sums,
                            CONTROL_OVERHEAD_MBPS,
                            rates,
                            values,
                            |l, raw| {
                                let q = QualityLevel::new((l + 1) as u8);
                                deltas[u] * q.value() - alpha * fallback.delay(raw)
                            },
                        );
                        sanitize_rates(rates);
                    },
                );
            }
            build_time += t.elapsed();

            assignments.push(engine.solve().to_vec());
        }
        let plane_stats = plane.stats();
        let mut fov_stats = (0u64, 0u64);
        for c in &fov_caches {
            let (h, m) = c.stats();
            fov_stats.0 += h;
            fov_stats.1 += m;
        }
        (assignments, build_time, plane_stats, fov_stats)
    }

    /// Resolves every slot's `(cell, visible tiles)` request once, outside
    /// any clock — both staging paths consume the identical request
    /// stream, so FoV resolution (unchanged by the layout work) stays out
    /// of the timed staging windows.
    fn staging_requests(&self) -> Vec<(CellId, Vec<TileId>)> {
        let mut fov_caches: Vec<FovRequestCache> = (0..self.users)
            .map(|_| FovRequestCache::new(*self.library.fov()))
            .collect();
        let mut requests = Vec::with_capacity(self.slots * self.users);
        for slot in 0..self.slots {
            for (u, fov) in fov_caches.iter_mut().enumerate() {
                let pose = &self.poses[self.at(slot, u)];
                let cell = self.library.grid().cell_of(&pose.position);
                let tiles = fov.tiles_for(pose).to_vec();
                requests.push((cell, tiles));
            }
        }
        requests
    }

    /// Per-user value slopes of the staging tier (the classroom model's
    /// rate-independent `δ_n · (l + 1)` ladder): constant per user, taken
    /// from the first slot so both paths agree.
    fn staging_deltas(&self) -> Vec<f64> {
        (0..self.users)
            .map(|u| self.deltas[self.at(0, u)])
            .collect()
    }

    /// Replays the staging stage through the **old strided path**: rate
    /// rows tile-major (`t * levels + l`), the per-level undelivered sums
    /// walked afresh every slot by striding over those rows, and the
    /// hand-rolled per-level `sums[l] + overhead` / `δ·(l+1)` fill.
    /// Returns the per-slot assignment fingerprint and the time spent in
    /// the staging sections (the per-slot sums walk + the fill). Event
    /// application and retargets stay outside the clocks: their ledger
    /// hashing is identical in both paths and the build tier already
    /// times the plane/retarget work.
    fn run_staging_before(
        &self,
        requests: &[(CellId, Vec<TileId>)],
        threads: usize,
    ) -> (u64, Duration) {
        let deltas = self.staging_deltas();
        let mut engine = SlotEngine::new();
        let mut ledgers: Vec<DeliveryLedger> =
            (0..self.users).map(|_| DeliveryLedger::new()).collect();
        let mut plane = StridedPlane::new(self.library.sizing().clone());
        let mut sums: Vec<StridedSums> = (0..self.users)
            .map(|_| StridedSums::new(self.levels))
            .collect();
        let levels = self.levels;
        let mut fingerprint = fnv::OFFSET;
        let mut staging_time = Duration::ZERO;
        for slot in 0..self.slots {
            for u in 0..self.users {
                let (acks, releases) = &self.events[self.at(slot, u)];
                for &id in acks {
                    sums[u].acknowledge(&mut ledgers[u], id);
                }
                sums[u].release(&mut ledgers[u], releases.iter().copied());
            }
            for u in 0..self.users {
                let (cell, tiles) = &requests[self.at(slot, u)];
                if !sums[u].targets(*cell, tiles) {
                    sums[u].retarget(*cell, tiles, plane.rows(*cell), &ledgers[u]);
                }
            }
            let t = Instant::now();
            for s in &mut sums {
                // The strided walk the level-major layout removed: fold
                // every level's sum from the tile-major rows, stride
                // `levels` apart.
                s.recompute_all();
            }
            staging_time += t.elapsed();

            engine.begin_slot(self.server_budget);
            let slot_links = &self.links[slot * self.users..(slot + 1) * self.users];
            engine.add_users(levels, slot_links);
            let t = Instant::now();
            {
                let (rates_table, values_table) = engine.staged_tables_mut();
                let sums = &sums;
                let deltas = &deltas;
                parallel_chunk_pairs(
                    rates_table,
                    values_table,
                    levels,
                    threads,
                    |u, rates, values| {
                        let s = sums[u].sums();
                        for l in 0..levels {
                            rates[l] = s[l] + CONTROL_OVERHEAD_MBPS;
                            values[l] = deltas[u] * (l + 1) as f64;
                        }
                        sanitize_rates(rates);
                    },
                );
            }
            staging_time += t.elapsed();

            for q in engine.solve() {
                fingerprint = fnv::fold_bytes(fingerprint, &[q.get()]);
            }
        }
        (fingerprint, staging_time)
    }

    /// Replays the staging stage through the **production level-major
    /// path**: incremental [`UndeliveredSums`] (contiguous per-level
    /// folds), the level-major [`RatePlane`], and the fused
    /// [`stage_rates_values`] kernel copying the hoisted per-user value
    /// ladder. Returns the per-slot assignment fingerprint and the staging
    /// time (the fill — the level-major design needs no per-slot sums
    /// walk at all; its incremental folds ride the untimed event stage,
    /// same as the build tier).
    fn run_staging_after(
        &self,
        requests: &[(CellId, Vec<TileId>)],
        threads: usize,
    ) -> (u64, Duration) {
        let deltas = self.staging_deltas();
        let levels = self.levels;
        let mut value_weights = vec![0.0f64; self.users * levels];
        for u in 0..self.users {
            for l in 0..levels {
                value_weights[u * levels + l] = deltas[u] * (l + 1) as f64;
            }
        }
        let mut engine = SlotEngine::new();
        let mut ledgers: Vec<DeliveryLedger> =
            (0..self.users).map(|_| DeliveryLedger::new()).collect();
        let mut plane = RatePlane::new(self.library.sizing().clone(), DEFAULT_PLANE_CELLS);
        let mut undelivered: Vec<UndeliveredSums> = (0..self.users)
            .map(|_| UndeliveredSums::new(levels))
            .collect();
        let mut fingerprint = fnv::OFFSET;
        let mut staging_time = Duration::ZERO;
        for slot in 0..self.slots {
            for u in 0..self.users {
                let (acks, releases) = &self.events[self.at(slot, u)];
                for &id in acks {
                    undelivered[u].acknowledge(&mut ledgers[u], id);
                }
                undelivered[u].release(&mut ledgers[u], releases.iter().copied());
            }
            for u in 0..self.users {
                let (cell, tiles) = &requests[self.at(slot, u)];
                if !undelivered[u].targets(*cell, tiles) {
                    undelivered[u].retarget(*cell, tiles, plane.rows(*cell), &ledgers[u]);
                }
            }

            engine.begin_slot(self.server_budget);
            let slot_links = &self.links[slot * self.users..(slot + 1) * self.users];
            engine.add_users(levels, slot_links);
            let t = Instant::now();
            {
                let (rates_table, values_table) = engine.staged_tables_mut();
                let undelivered = &undelivered;
                let value_weights = &value_weights;
                parallel_chunk_pairs(
                    rates_table,
                    values_table,
                    levels,
                    threads,
                    |u, rates, values| {
                        let sums = undelivered[u].sums();
                        let weights = &value_weights[u * levels..(u + 1) * levels];
                        stage_rates_values(sums, CONTROL_OVERHEAD_MBPS, weights, rates, values);
                        sanitize_rates(rates);
                    },
                );
            }
            staging_time += t.elapsed();

            for q in engine.solve() {
                fingerprint = fnv::fold_bytes(fingerprint, &[q.get()]);
            }
        }
        (fingerprint, staging_time)
    }
}

/// The pre-transpose tile-major rate plane of the old staging path: rows
/// at `t * levels + l`, materialised once per cell (no eviction — the
/// benchmark favours the old path wherever the two differ on unchanged
/// ground).
struct StridedPlane {
    sizing: TileSizeModel,
    levels: usize,
    cells: HashMap<CellId, Box<[f64]>>,
}

impl StridedPlane {
    fn new(sizing: TileSizeModel) -> Self {
        let levels = sizing.levels();
        StridedPlane {
            sizing,
            levels,
            cells: HashMap::new(),
        }
    }

    fn rows(&mut self, cell: CellId) -> &[f64] {
        let levels = self.levels;
        let sizing = &self.sizing;
        self.cells.entry(cell).or_insert_with(|| {
            let mut rows = vec![0.0f64; usize::from(TileId::COUNT) * levels].into_boxed_slice();
            for tile in TileId::all() {
                let start = usize::from(tile.get()) * levels;
                sizing.tile_rate_row(cell, tile, &mut rows[start..start + levels]);
            }
            rows
        })
    }
}

/// Tile-major staging state of the old strided path: rate rows and
/// delivered mask at `t * levels + l`, events flip mask bits, and
/// [`StridedSums::recompute_all`] walks every level at stride `levels` —
/// the per-slot walk the ROADMAP flagged and the level-major layout
/// removed. Sums fold in tile order, so they stay bit-identical to the
/// production accumulator and the assignments must match.
struct StridedSums {
    levels: usize,
    cell: Option<CellId>,
    tiles: Vec<TileId>,
    rows: Vec<f64>,
    delivered: Vec<bool>,
    sums: Vec<f64>,
}

impl StridedSums {
    fn new(levels: usize) -> Self {
        StridedSums {
            levels,
            cell: None,
            tiles: Vec::new(),
            rows: Vec::new(),
            delivered: Vec::new(),
            sums: vec![0.0; levels],
        }
    }

    fn targets(&self, cell: CellId, tiles: &[TileId]) -> bool {
        self.cell == Some(cell) && self.tiles == tiles
    }

    fn retarget(
        &mut self,
        cell: CellId,
        tiles: &[TileId],
        cell_rows: &[f64],
        ledger: &DeliveryLedger,
    ) {
        self.cell = Some(cell);
        self.tiles.clear();
        self.tiles.extend_from_slice(tiles);
        self.rows.clear();
        self.delivered.clear();
        for &tile in tiles {
            let start = usize::from(tile.get()) * self.levels;
            self.rows
                .extend_from_slice(&cell_rows[start..start + self.levels]);
            for l in 0..self.levels {
                let q = QualityLevel::new((l + 1) as u8);
                self.delivered
                    .push(ledger.is_delivered(&VideoId::new(cell, tile, q)));
            }
        }
    }

    fn acknowledge(&mut self, ledger: &mut DeliveryLedger, id: VideoId) {
        if ledger.acknowledge(id) {
            self.apply(id, true);
        }
    }

    fn release<I: IntoIterator<Item = VideoId>>(&mut self, ledger: &mut DeliveryLedger, ids: I) {
        for id in ids {
            if ledger.release_one(id) {
                self.apply(id, false);
            }
        }
    }

    fn apply(&mut self, id: VideoId, delivered: bool) {
        if self.cell != Some(id.cell()) {
            return;
        }
        let Some(t) = self.tiles.iter().position(|&tile| tile == id.tile()) else {
            return;
        };
        let l = id.quality().index();
        if l < self.levels {
            self.delivered[t * self.levels + l] = delivered;
        }
    }

    /// The strided per-slot walk: every level's sum folded from entries
    /// `levels` apart, in tile order.
    fn recompute_all(&mut self) {
        for l in 0..self.levels {
            let mut sum = 0.0f64;
            for t in 0..self.tiles.len() {
                if !self.delivered[t * self.levels + l] {
                    sum += self.rows[t * self.levels + l];
                }
            }
            self.sums[l] = sum;
        }
    }

    fn sums(&self) -> &[f64] {
        &self.sums
    }
}

fn main() {
    let args = FigureArgs::parse();
    let slots = ((6_000.0 * args.scale) as usize).max(200);
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let workloads = [
        Workload::generate("setup1", 8, 6, 400.0, slots, args.seed),
        Workload::generate("setup2", 15, 6, 800.0, slots, args.seed ^ 0xBEEF),
    ];

    println!(
        "# Build-stage benchmark ({slots} slots per setup, host parallelism {host_parallelism})\n"
    );
    let mut setup_entries = Vec::new();
    for w in &workloads {
        // Warm-up replays (untimed results discarded), then the timed
        // replays whose numbers are reported.
        let _ = w.run_before();
        let _ = w.run_after(1);
        let (before_assignments, before_time) = w.run_before();
        let (after_assignments, after_time, plane_stats, fov_stats) = w.run_after(1);
        let identical = before_assignments == after_assignments;
        assert!(
            identical,
            "{}: cached build diverged from the reference build",
            w.name
        );
        let speedup = before_time.as_secs_f64() / after_time.as_secs_f64();
        println!(
            "{}: {} users — before {:>8.1} µs/slot, after {:>8.1} µs/slot, build speedup {:.2}x, identical assignments: {}",
            w.name,
            w.users,
            before_time.as_secs_f64() * 1e6 / w.slots as f64,
            after_time.as_secs_f64() * 1e6 / w.slots as f64,
            speedup,
            identical
        );
        println!(
            "  plane: {} hits / {} misses; fov cache: {} hits / {} misses",
            plane_stats.0, plane_stats.1, fov_stats.0, fov_stats.1
        );

        // Thread sweep: identity is checked at every point regardless of
        // the host's core count; timings are only meaningful with real
        // parallelism underneath.
        let mut thread_entries = Vec::new();
        for threads in [1usize, 2, 4] {
            let (t_assignments, t_time, _, _) = w.run_after(threads);
            let t_identical = t_assignments == before_assignments;
            assert!(
                t_identical,
                "{}: {threads}-thread build diverged from the reference build",
                w.name
            );
            println!(
                "  {} threads: {:>8.1} µs/slot, identical: {}",
                threads,
                t_time.as_secs_f64() * 1e6 / w.slots as f64,
                t_identical
            );
            thread_entries.push(format!(
                "        {{\"threads\": {}, \"build_s\": {:.4}, \"build_us_per_slot\": {:.2}, \"identical\": {}}}",
                threads,
                t_time.as_secs_f64(),
                t_time.as_secs_f64() * 1e6 / w.slots as f64,
                t_identical
            ));
        }

        // Staging tier: the slot staging stage alone (event folds,
        // retargets, per-level sums, rate/value fill) through the old
        // tile-major strided replica vs the production level-major path
        // with the fused kernel. Min-of-k timing; the per-slot assignment
        // fingerprint must match on every replay and thread count.
        let requests = w.staging_requests();
        let _ = w.run_staging_before(&requests, 1);
        let _ = w.run_staging_after(&requests, 1);
        let mut staging_before = Duration::MAX;
        let mut reference_fp = None;
        for _ in 0..STAGING_REPS {
            let (fp, t) = w.run_staging_before(&requests, 1);
            match reference_fp {
                None => reference_fp = Some(fp),
                Some(expected) => assert_eq!(
                    fp, expected,
                    "{}: strided staging replay is not deterministic",
                    w.name
                ),
            }
            staging_before = staging_before.min(t);
        }
        let reference_fp = reference_fp.expect("at least one staging rep");
        let mut staging_thread_entries = Vec::new();
        let mut staging_after_single = Duration::MAX;
        for threads in [1usize, 2, 4] {
            let mut staging_after = Duration::MAX;
            for _ in 0..STAGING_REPS {
                let (fp, t) = w.run_staging_after(&requests, threads);
                assert_eq!(
                    fp, reference_fp,
                    "{}: fused staging at {threads} threads diverged from the strided reference",
                    w.name
                );
                staging_after = staging_after.min(t);
            }
            if threads == 1 {
                staging_after_single = staging_after;
            }
            let thread_speedup = staging_before.as_secs_f64() / staging_after.as_secs_f64();
            println!(
                "  staging, {} threads: {:>8.1} µs/slot, speedup {:.2}x, fingerprint match: true",
                threads,
                staging_after.as_secs_f64() * 1e6 / w.slots as f64,
                thread_speedup
            );
            staging_thread_entries.push(format!(
                "          {{\"threads\": {}, \"staging_s\": {:.4}, \"staging_us_per_slot\": {:.2}, \"speedup\": {:.3}, \"identical\": true}}",
                threads,
                staging_after.as_secs_f64(),
                staging_after.as_secs_f64() * 1e6 / w.slots as f64,
                thread_speedup
            ));
        }
        let staging_speedup = staging_before.as_secs_f64() / staging_after_single.as_secs_f64();
        println!(
            "  staging: before {:>8.1} µs/slot, after {:>8.1} µs/slot, staging speedup {:.2}x (min of {STAGING_REPS}), fingerprint 0x{:016x}",
            staging_before.as_secs_f64() * 1e6 / w.slots as f64,
            staging_after_single.as_secs_f64() * 1e6 / w.slots as f64,
            staging_speedup,
            reference_fp
        );

        setup_entries.push(format!(
            "    {{\"name\": \"{}\", \"users\": {}, \"levels\": {}, \"server_budget_mbps\": {:.0}, \"slots\": {}, \"assignments_identical\": {}, \"before\": {{\"build_s\": {:.4}, \"build_us_per_slot\": {:.2}}}, \"after\": {{\"build_s\": {:.4}, \"build_us_per_slot\": {:.2}, \"plane\": {{\"hits\": {}, \"misses\": {}}}, \"fov_cache\": {{\"hits\": {}, \"misses\": {}}}}}, \"build_speedup\": {:.3}, \"threads\": [\n{}\n      ], \"staging\": {{\"reps\": {}, \"fingerprint\": \"0x{:016x}\", \"before\": {{\"staging_s\": {:.4}, \"staging_us_per_slot\": {:.2}}}, \"after\": {{\"staging_s\": {:.4}, \"staging_us_per_slot\": {:.2}}}, \"staging_speedup\": {:.3}, \"threads\": [\n{}\n        ]}}}}",
            w.name,
            w.users,
            w.levels,
            w.server_budget,
            w.slots,
            identical,
            before_time.as_secs_f64(),
            before_time.as_secs_f64() * 1e6 / w.slots as f64,
            after_time.as_secs_f64(),
            after_time.as_secs_f64() * 1e6 / w.slots as f64,
            plane_stats.0,
            plane_stats.1,
            fov_stats.0,
            fov_stats.1,
            speedup,
            thread_entries.join(",\n"),
            STAGING_REPS,
            reference_fp,
            staging_before.as_secs_f64(),
            staging_before.as_secs_f64() * 1e6 / w.slots as f64,
            staging_after_single.as_secs_f64(),
            staging_after_single.as_secs_f64() * 1e6 / w.slots as f64,
            staging_speedup,
            staging_thread_entries.join(",\n")
        ));
    }

    let note = if host_parallelism == 1 {
        "\"thread sweep timings not meaningful: single-core host (identity still checked)\""
    } else {
        ""
    };
    let json = format!(
        "{{\n  \"bench\": \"build\",\n  \"slots_per_setup\": {},\n  \"host_parallelism\": {},\n  \"notes\": [{}],\n  \"setups\": [\n{}\n  ]\n}}\n",
        slots,
        host_parallelism,
        note,
        setup_entries.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_build.json");
    std::fs::write(out, &json).expect("write benchmark JSON");
    println!("\nwrote {out}");
}
