//! What a run measured, and the metric sets and JSON line it reports.

use std::time::Instant;

use gpu_sim::stats::PipelineStats;
use gpu_sim::Unit;

use crate::{HOST_THREADS, SETUP_REPS};

/// The result line of one run.
pub struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// One JSON object on one line, metric values with every digit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything a workload counts while it runs. Host times are wall-clock
/// spans recorded by the benchmark around its calls into each layer;
/// simulated counters come from the pipeline's own statistics.
#[derive(Default)]
pub struct Tally {
    /// Every output check passed.
    pub correct: bool,
    /// Frames the timed window asked for.
    pub attempted: u64,
    /// Frames that were asked for and not delivered.
    pub failed: u64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Per-frame user-visible frame times, ms.
    pub frame_ms: Vec<f64>,
    /// Wall time of the timed window, seconds (including the set-up
    /// repetitions between units, a few ms each).
    pub wall_s: f64,
    /// Process CPU time over the timed window, seconds (traced runs).
    pub cpu_s: f64,
    /// Worker slots the frame loop runs on (serve pool workers, or 1 for
    /// the one-frame-at-a-time evaluation loop).
    pub slots: usize,
    /// Summed host time inside the simulated draw call, seconds (traced
    /// runs).
    pub draw_s: f64,
    /// Frames delivered in the timed window.
    pub frames: u64,
    /// Simulated draw cycles of the HET+QM frames delivered.
    pub hetqm_cycles: u64,
    /// HET+QM frames behind `hetqm_cycles`.
    pub hetqm_frames: u64,
    /// Visible splats summed over delivered frames.
    pub visible_splats: u64,
    /// Input Gaussians summed over frames preprocessed through the index.
    pub indexed_gaussians: u64,
    /// Gaussians the index skipped without a per-Gaussian test.
    pub gaussians_skipped: u64,
    /// Frames sorted by the temporal sorter.
    pub resort_frames: u64,
    /// Of those, frames the warm start repaired instead of re-sorting.
    pub resort_repaired: u64,
    /// Batch-eligible dispatch rounds.
    pub batch_rounds: u64,
    /// Rounds that found a batch-mate.
    pub batch_batched_rounds: u64,
    /// Frames dispatched through eligible rounds.
    pub batch_frames: u64,
    /// Simulated pipeline counters summed over delivered frames.
    pub sim: SimSums,
    /// Simulated cycles of a sample of frames drawn by the baseline
    /// pipeline, and of the same frames drawn by HET+QM.
    pub speedup_sample: (u64, u64),
}

/// Simulated pipeline counters summed over frames.
#[derive(Default)]
pub struct SimSums {
    pub total_cycles: u64,
    pub raster_quads: u64,
    pub crop_quads: u64,
    pub crop_hits: u64,
    pub crop_accesses: u64,
    pub zrop_discards: u64,
    pub merged_pairs: u64,
    pub crop_busy: u64,
}

impl SimSums {
    pub fn add(&mut self, s: &PipelineStats) {
        self.total_cycles += s.total_cycles;
        self.raster_quads += s.raster_quads;
        self.crop_quads += s.crop_quads;
        self.crop_hits += s.crop_cache.hits;
        self.crop_accesses += s.crop_cache.accesses();
        self.zrop_discards += s.zrop_term_discards;
        self.merged_pairs += s.merged_pairs;
        self.crop_busy += s.busy_cycles[Unit::Crop.index()];
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Tally {
    /// The end-to-end metrics (`trace == false`) or the per-layer ones.
    pub fn outcome(mut self, trace: bool) -> Outcome {
        let frames = self.frames as f64;
        let metrics = if trace {
            let s = &self.sim;
            vec![
                ("draw_ms", ratio(self.draw_s * 1e3, frames), "ms"),
                (
                    "outside_draw_ms",
                    ratio(
                        (self.slots as f64 * self.wall_s - self.draw_s) * 1e3,
                        frames,
                    ),
                    "ms",
                ),
                (
                    "cpu_busy_share",
                    ratio(self.cpu_s, self.wall_s * HOST_THREADS as f64),
                    "ratio",
                ),
                (
                    "visible_splats",
                    ratio(self.visible_splats as f64, frames),
                    "count",
                ),
                (
                    "cull_skip_ratio",
                    ratio(self.gaussians_skipped as f64, self.indexed_gaussians as f64),
                    "ratio",
                ),
                (
                    "resort_repair_ratio",
                    ratio(self.resort_repaired as f64, self.resort_frames as f64),
                    "ratio",
                ),
                (
                    "batch_occupancy",
                    ratio(self.batch_frames as f64, self.batch_rounds as f64),
                    "count",
                ),
                (
                    "batch_fallback_ratio",
                    ratio(
                        (self.batch_rounds - self.batch_batched_rounds) as f64,
                        self.batch_rounds as f64,
                    ),
                    "ratio",
                ),
                (
                    "crop_quads_per_frame",
                    ratio(s.crop_quads as f64, frames),
                    "count",
                ),
                (
                    "crop_cache_hit_rate",
                    ratio(s.crop_hits as f64, s.crop_accesses as f64),
                    "ratio",
                ),
                (
                    "zrop_discard_ratio",
                    ratio(s.zrop_discards as f64, s.raster_quads as f64),
                    "ratio",
                ),
                (
                    "merged_pairs_per_frame",
                    ratio(s.merged_pairs as f64, frames),
                    "count",
                ),
                (
                    "crop_busy_share",
                    ratio(s.crop_busy as f64, s.total_cycles as f64),
                    "ratio",
                ),
                (
                    "sim_speedup",
                    ratio(self.speedup_sample.0 as f64, self.speedup_sample.1 as f64),
                    "x",
                ),
            ]
        } else {
            self.frame_ms.sort_by(f64::total_cmp);
            vec![
                ("frame_ms_p50", percentile(&self.frame_ms, 0.50), "ms"),
                ("frame_ms_p95", percentile(&self.frame_ms, 0.95), "ms"),
                (
                    "sim_kcycles_per_frame",
                    ratio(self.hetqm_cycles as f64 / 1e3, self.hetqm_frames as f64),
                    "kcycles",
                ),
                ("setup_s", self.setup_s, "s"),
            ]
        };
        Outcome {
            correct: self.correct && self.frames > 0,
            attempted: self.attempted.max(1),
            failed: self.failed,
            metrics,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A workload's set-up, timed every time it runs. A workload sets up
/// [`SETUP_REPS`] times before it measures and once more after each
/// measured unit of work, so `setup_s` — the median — samples the host
/// across the whole run rather than one instant of it.
pub struct Setup<F> {
    build: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Sets up [`SETUP_REPS`] times; returns the timer and the last result.
    pub fn new(build: F) -> (Self, T) {
        let mut setup = Self {
            build,
            times: Vec::new(),
        };
        let mut value = setup.run();
        for _ in 1..SETUP_REPS {
            value = setup.run();
        }
        (setup, value)
    }

    /// Sets up once more, timed.
    pub fn run(&mut self) -> T {
        let t0 = Instant::now();
        let value = (self.build)();
        self.times.push(t0.elapsed().as_secs_f64());
        value
    }

    /// Median set-up time, seconds.
    pub fn median_s(mut self) -> f64 {
        self.times.sort_by(f64::total_cmp);
        self.times[self.times.len() / 2]
    }
}

/// CPU time this process has used, seconds (user + system, all
/// threads), from `/proc/self/stat`; 0 where that file is unavailable.
pub fn process_cpu_s() -> f64 {
    // Clock ticks per second of the `/proc` time fields on Linux.
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is field 3,
    // utime field 14 and stime field 15.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// SplitMix64: derives independent, reproducible values from the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f32, hi: f32) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * unit
    }
}
