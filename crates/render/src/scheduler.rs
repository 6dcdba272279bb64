//! Multi-GPU scheduling policies for the online render/encode farm —
//! "coordinate multiple GPUs in a server to enable multiple encoders
//! working in parallel with the rendering" (Section VIII).

use crate::gpu::Gpu;
use crate::job::RenderJob;

/// Chooses which GPU runs the next job.
pub trait GpuScheduler {
    /// Index of the GPU that should run `job`.
    fn pick(&mut self, gpus: &[Gpu], job: &RenderJob) -> usize;
}

/// Cycles through GPUs regardless of load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl GpuScheduler for RoundRobin {
    fn pick(&mut self, gpus: &[Gpu], _job: &RenderJob) -> usize {
        let idx = self.next % gpus.len();
        self.next = self.next.wrapping_add(1);
        idx
    }
}

/// Sends the job to the GPU that would finish it earliest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarliestCompletion;

impl EarliestCompletion {
    /// Creates the policy.
    pub fn new() -> Self {
        EarliestCompletion
    }
}

impl GpuScheduler for EarliestCompletion {
    fn pick(&mut self, gpus: &[Gpu], job: &RenderJob) -> usize {
        gpus.iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.estimated_completion(job)
                    .total_cmp(&b.1.estimated_completion(job))
            })
            .map(|(i, _)| i)
            .expect("at least one GPU")
    }
}

/// Pins each user's tiles to one GPU (`user mod gpus`), avoiding
/// cross-GPU texture copies at the cost of load imbalance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UserAffinity;

impl UserAffinity {
    /// Creates the policy.
    pub fn new() -> Self {
        UserAffinity
    }
}

impl GpuScheduler for UserAffinity {
    fn pick(&mut self, gpus: &[Gpu], job: &RenderJob) -> usize {
        job.user % gpus.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::CostModel;
    use cvr_content::grid::CellId;
    use cvr_content::tile::TileId;
    use cvr_core::quality::QualityLevel;

    fn job(user: usize) -> RenderJob {
        RenderJob {
            user,
            cell: CellId { x: 0, z: 0 },
            tile: TileId::new(0),
            quality: QualityLevel::new(4),
            release_s: 0.0,
        }
    }

    fn farm(n: usize) -> Vec<Gpu> {
        (0..n).map(|_| Gpu::new(CostModel::rtx3070(), 3)).collect()
    }

    #[test]
    fn round_robin_cycles() {
        let gpus = farm(3);
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(&gpus, &job(0))).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn earliest_completion_avoids_busy_gpu() {
        let mut gpus = farm(2);
        // Load GPU 0 heavily.
        for _ in 0..10 {
            gpus[0].submit(&job(0));
        }
        let mut ec = EarliestCompletion::new();
        assert_eq!(ec.pick(&gpus, &job(1)), 1);
    }

    #[test]
    fn user_affinity_is_stable_per_user() {
        let gpus = farm(4);
        let mut ua = UserAffinity::new();
        for user in 0..8 {
            let first = ua.pick(&gpus, &job(user));
            let second = ua.pick(&gpus, &job(user));
            assert_eq!(first, second);
            assert_eq!(first, user % 4);
        }
    }
}
