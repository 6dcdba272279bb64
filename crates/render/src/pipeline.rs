//! The per-slot online render/encode pipeline: given every user's tile
//! requests for the upcoming frame, schedule them across the GPU farm and
//! report whether the farm can sustain the frame deadline — the
//! feasibility question behind the paper's offline-rendering design
//! decision and its multi-GPU future-work proposal.

use serde::{Deserialize, Serialize};

use crate::gpu::{Gpu, JobCompletion};
use crate::job::{CostModel, RenderJob};
use crate::scheduler::GpuScheduler;

/// Outcome of pushing one slot's worth of jobs through the farm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotReport {
    /// Number of jobs submitted.
    pub jobs: usize,
    /// Jobs that finished within the deadline.
    pub on_time: usize,
    /// Completion time of the last job, relative to the slot start.
    pub makespan_s: f64,
    /// Mean GPU utilisation over the slot (busy time / (GPUs × deadline)).
    pub utilisation: f64,
}

impl SlotReport {
    /// Fraction of jobs meeting the deadline.
    pub fn on_time_fraction(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.on_time as f64 / self.jobs as f64
        }
    }
}

/// A farm of identical GPUs plus a scheduling policy.
#[derive(Debug)]
pub struct RenderFarm<S> {
    gpus: Vec<Gpu>,
    scheduler: S,
}

impl<S: GpuScheduler> RenderFarm<S> {
    /// Creates a farm of `count` GPUs with the given cost model.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize, cost: CostModel, encoder_sessions: usize, scheduler: S) -> Self {
        assert!(count > 0, "need at least one GPU");
        RenderFarm {
            gpus: (0..count)
                .map(|_| Gpu::new(cost, encoder_sessions))
                .collect(),
            scheduler,
        }
    }

    /// Idles every GPU at `now_s`, as at a slot boundary in steady-state
    /// pipelining: the previous slot's work has shipped.
    pub fn reset(&mut self, now_s: f64) {
        for gpu in &mut self.gpus {
            gpu.reset(now_s);
        }
    }

    /// Runs `job` on the GPU the scheduling policy picks.
    pub fn submit(&mut self, job: &RenderJob) -> JobCompletion {
        let gpu = self.scheduler.pick(&self.gpus, job);
        self.gpus[gpu].submit(job)
    }

    /// Runs one slot: all `jobs` are released at `slot_start_s` and must
    /// finish by `slot_start_s + deadline_s`. The farm starts the slot
    /// idle.
    pub fn run_slot(
        &mut self,
        jobs: &[RenderJob],
        slot_start_s: f64,
        deadline_s: f64,
    ) -> SlotReport {
        self.reset(slot_start_s);
        let busy_before: f64 = self.gpus.iter().map(Gpu::busy_time).sum();

        let deadline = slot_start_s + deadline_s;
        let mut on_time = 0;
        let mut makespan: f64 = 0.0;
        for job in jobs {
            let completion = self.submit(job);
            if completion.done_s <= deadline + 1e-12 {
                on_time += 1;
            }
            makespan = makespan.max(completion.done_s - slot_start_s);
        }

        let busy_after: f64 = self.gpus.iter().map(Gpu::busy_time).sum();
        SlotReport {
            jobs: jobs.len(),
            on_time,
            makespan_s: makespan,
            utilisation: ((busy_after - busy_before) / (self.gpus.len() as f64 * deadline_s))
                .min(10.0),
        }
    }
}

/// Builds one slot's job list for a classroom: `users` users, each needing
/// `tiles_per_user` tiles at the given quality.
pub fn classroom_jobs(
    users: usize,
    tiles_per_user: usize,
    quality: cvr_core::quality::QualityLevel,
    slot_start_s: f64,
) -> Vec<RenderJob> {
    use cvr_content::grid::CellId;
    use cvr_content::tile::TileId;
    let mut jobs = Vec::with_capacity(users * tiles_per_user);
    for user in 0..users {
        for t in 0..tiles_per_user {
            jobs.push(RenderJob {
                user,
                cell: CellId {
                    x: user as i32,
                    z: t as i32,
                },
                tile: TileId::new((t % 4) as u8),
                quality,
                release_s: slot_start_s,
            });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{EarliestCompletion, RoundRobin, UserAffinity};
    use cvr_core::quality::QualityLevel;

    const SLOT: f64 = 1.0 / 60.0;

    #[test]
    fn single_gpu_cannot_sustain_the_classroom() {
        // 8 users × 3 tiles = 24 jobs/slot; one GPU cannot meet 16.7 ms.
        let mut farm = RenderFarm::new(1, CostModel::rtx3070(), 3, EarliestCompletion::new());
        let jobs = classroom_jobs(8, 3, QualityLevel::new(4), 0.0);
        let report = farm.run_slot(&jobs, 0.0, SLOT);
        assert!(
            report.on_time_fraction() < 0.9,
            "one GPU should not keep up: {}",
            report.on_time_fraction()
        );
        assert!(report.makespan_s > SLOT);
    }

    #[test]
    fn four_gpus_sustain_the_classroom() {
        // The paper's server has four GPUs — its future-work proposal.
        let mut farm = RenderFarm::new(4, CostModel::rtx3070(), 3, EarliestCompletion::new());
        let jobs = classroom_jobs(8, 3, QualityLevel::new(4), 0.0);
        let report = farm.run_slot(&jobs, 0.0, SLOT);
        assert_eq!(
            report.on_time, report.jobs,
            "four GPUs must make the deadline"
        );
        assert!(report.makespan_s <= SLOT);
    }

    #[test]
    fn earliest_completion_beats_round_robin_under_skew() {
        // Skewed job sizes (mixed qualities): load-aware placement wins.
        let mut jobs = classroom_jobs(6, 3, QualityLevel::new(6), 0.0);
        jobs.extend(classroom_jobs(6, 3, QualityLevel::new(1), 0.0));

        let mut rr = RenderFarm::new(2, CostModel::rtx3070(), 3, RoundRobin::new());
        let mut ec = RenderFarm::new(2, CostModel::rtx3070(), 3, EarliestCompletion::new());
        let r1 = rr.run_slot(&jobs, 0.0, SLOT);
        let r2 = ec.run_slot(&jobs, 0.0, SLOT);
        assert!(r2.makespan_s <= r1.makespan_s + 1e-12);
    }

    #[test]
    fn affinity_matches_modulo_mapping() {
        let mut farm = RenderFarm::new(4, CostModel::rtx3070(), 3, UserAffinity::new());
        let jobs = classroom_jobs(4, 1, QualityLevel::new(3), 0.0);
        let report = farm.run_slot(&jobs, 0.0, SLOT);
        // Four users on four GPUs: fully parallel, trivially on time.
        assert_eq!(report.on_time, 4);
    }

    #[test]
    fn empty_slot_is_trivially_on_time() {
        let mut farm = RenderFarm::new(2, CostModel::rtx3070(), 3, RoundRobin::new());
        let report = farm.run_slot(&[], 0.0, SLOT);
        assert_eq!(report.jobs, 0);
        assert_eq!(report.on_time_fraction(), 1.0);
        assert_eq!(report.makespan_s, 0.0);
    }

    #[test]
    fn utilisation_reflects_load() {
        let mut farm = RenderFarm::new(2, CostModel::rtx3070(), 3, EarliestCompletion::new());
        let light = farm.run_slot(&classroom_jobs(1, 1, QualityLevel::new(1), 0.0), 0.0, SLOT);
        let heavy = farm.run_slot(&classroom_jobs(8, 4, QualityLevel::new(6), 1.0), 1.0, SLOT);
        assert!(heavy.utilisation > light.utilisation);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = RenderFarm::new(0, CostModel::rtx3070(), 3, RoundRobin::new());
    }
}
