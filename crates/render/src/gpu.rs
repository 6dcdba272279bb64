//! GPU worker model: a render engine plus a limited pool of NVENC encoder
//! sessions per GPU (consumer NVIDIA parts cap concurrent NVENC sessions;
//! the paper's server has four RTX 3070s).

use serde::{Deserialize, Serialize};

use crate::job::{CostModel, RenderJob};

/// A single GPU with one render queue and a bounded set of parallel
/// encoder sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gpu {
    cost: CostModel,
    /// Concurrent NVENC sessions (driver-limited; typically 3–5).
    encoder_sessions: usize,
    /// When the render engine becomes free.
    render_free_s: f64,
    /// When each encoder session becomes free.
    encoder_free_s: Vec<f64>,
    /// Total busy seconds accumulated (for utilisation accounting).
    busy_s: f64,
}

/// Completion report for one job on a GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCompletion {
    /// When rendering finished.
    pub rendered_s: f64,
    /// When encoding finished — the job's overall completion.
    pub done_s: f64,
}

impl Gpu {
    /// Creates a GPU with the given cost model and encoder session count.
    ///
    /// # Panics
    ///
    /// Panics if `encoder_sessions` is zero.
    pub fn new(cost: CostModel, encoder_sessions: usize) -> Self {
        assert!(encoder_sessions > 0, "need at least one encoder session");
        Gpu {
            cost,
            encoder_sessions,
            render_free_s: 0.0,
            encoder_free_s: vec![0.0; encoder_sessions],
            busy_s: 0.0,
        }
    }

    /// Earliest time this GPU could *finish* `job` if submitted now —
    /// used by load-aware schedulers without committing the job.
    pub fn estimated_completion(&self, job: &RenderJob) -> f64 {
        let render_start = self.render_free_s.max(job.release_s);
        let rendered = render_start + self.cost.render_time(job);
        let encoder_free = self
            .encoder_free_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let encode_start = rendered.max(encoder_free);
        encode_start + self.cost.encode_time(job)
    }

    /// Submits `job`, advancing the GPU's internal schedule; rendering is
    /// serial, encoding picks the first free session.
    pub fn submit(&mut self, job: &RenderJob) -> JobCompletion {
        let render_start = self.render_free_s.max(job.release_s);
        let rendered = render_start + self.cost.render_time(job);
        self.render_free_s = rendered;

        let (slot_idx, &slot_free) = self
            .encoder_free_s
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one session");
        let encode_start = rendered.max(slot_free);
        let done = encode_start + self.cost.encode_time(job);
        self.encoder_free_s[slot_idx] = done;

        self.busy_s += self.cost.total_time(job);
        JobCompletion {
            rendered_s: rendered,
            done_s: done,
        }
    }

    /// Accumulated busy time (render + encode), seconds.
    pub fn busy_time(&self) -> f64 {
        self.busy_s
    }

    /// Resets the schedule to idle at `now_s` (e.g. slot boundary in
    /// steady-state analysis).
    pub fn reset(&mut self, now_s: f64) {
        self.render_free_s = now_s;
        for e in &mut self.encoder_free_s {
            *e = now_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_content::grid::CellId;
    use cvr_content::tile::TileId;
    use cvr_core::quality::QualityLevel;

    fn job(release: f64) -> RenderJob {
        RenderJob {
            user: 0,
            cell: CellId { x: 0, z: 0 },
            tile: TileId::new(1),
            quality: QualityLevel::new(4),
            release_s: release,
        }
    }

    #[test]
    fn single_job_latency_matches_cost() {
        let mut gpu = Gpu::new(CostModel::rtx3070(), 3);
        let j = job(0.0);
        let done = gpu.submit(&j);
        let m = CostModel::rtx3070();
        assert!((done.rendered_s - m.render_s).abs() < 1e-12);
        assert!((done.done_s - m.total_time(&j)).abs() < 1e-12);
    }

    #[test]
    fn renders_serialise_but_encodes_parallelise() {
        let mut gpu = Gpu::new(CostModel::rtx3070(), 3);
        let m = CostModel::rtx3070();
        let a = gpu.submit(&job(0.0));
        let b = gpu.submit(&job(0.0));
        // Second render waits for the first.
        assert!((b.rendered_s - 2.0 * m.render_s).abs() < 1e-12);
        // But its encode starts immediately after its render (second
        // session is free), so jobs overlap in the encode stage.
        assert!(b.done_s < a.done_s + m.encode_time(&job(0.0)));
    }

    #[test]
    fn encoder_sessions_saturate() {
        // With one session, encodes serialise fully.
        let mut gpu = Gpu::new(CostModel::rtx3070(), 1);
        let m = CostModel::rtx3070();
        let jobs: Vec<JobCompletion> = (0..3).map(|_| gpu.submit(&job(0.0))).collect();
        let encode = m.encode_time(&job(0.0));
        for w in jobs.windows(2) {
            assert!(w[1].done_s >= w[0].done_s + encode - 1e-12);
        }
    }

    #[test]
    fn estimated_completion_matches_submit() {
        let mut gpu = Gpu::new(CostModel::rtx3070(), 3);
        gpu.submit(&job(0.0));
        gpu.submit(&job(0.0));
        let j = job(0.0);
        let estimate = gpu.estimated_completion(&j);
        let actual = gpu.submit(&j).done_s;
        assert!((estimate - actual).abs() < 1e-12);
    }

    #[test]
    fn release_time_gates_start() {
        let mut gpu = Gpu::new(CostModel::rtx3070(), 3);
        let done = gpu.submit(&job(5.0));
        assert!(done.rendered_s >= 5.0);
    }

    #[test]
    fn reset_and_accounting() {
        let mut gpu = Gpu::new(CostModel::rtx3070(), 3);
        gpu.submit(&job(0.0));
        assert!(gpu.busy_time() > 0.0);
        gpu.reset(10.0);
        let done = gpu.submit(&job(0.0));
        assert!(done.rendered_s >= 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one encoder session")]
    fn zero_sessions_panics() {
        let _ = Gpu::new(CostModel::rtx3070(), 0);
    }
}
