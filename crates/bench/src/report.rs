//! Machine-readable benchmark trail: `BENCH_pipeline.json`.
//!
//! Every `figures` invocation appends a wall-time record per experiment
//! and a canonical pipeline measurement (cycles per variant, speedup vs
//! the serial host path), so the repository's performance trajectory is
//! tracked from PR to PR without parsing human-readable output.

use std::fmt::Write as _;
use std::time::Instant;

use gpu_sim::config::GpuConfig;
use gsplat::scene::EVALUATED_SCENES;
use vrpipe::{FrameScratch, PipelineVariant, Renderer};

/// Output file name, written to the working directory.
pub const REPORT_PATH: &str = "BENCH_pipeline.json";

/// One experiment's wall time.
pub struct ExperimentRecord {
    /// Experiment name as passed on the command line.
    pub name: String,
    /// Wall time of the experiment function in milliseconds.
    pub wall_ms: f64,
}

/// Collects experiment timings and writes the JSON report.
#[derive(Default)]
pub struct Report {
    records: Vec<ExperimentRecord>,
}

impl Report {
    /// Runs `f`, recording its wall time under `name`.
    pub fn run(&mut self, name: &str, f: fn()) {
        let t0 = Instant::now();
        f();
        self.records.push(ExperimentRecord {
            name: name.to_string(),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }

    /// Writes `BENCH_pipeline.json` (experiment wall times + the canonical
    /// measurements) and returns the path, or an error.
    ///
    /// Every section is validated as standalone JSON before assembly and
    /// the full document is written atomically (temp file + rename, with
    /// a length check), so a measurement that emits a non-finite number
    /// (`NaN` has no JSON spelling) or an interrupted write can never
    /// leave a half-valid trail for CI to read as this run's result —
    /// any violation surfaces as `Err` and the harness exits non-zero.
    pub fn write(&self, scale: f32) -> std::io::Result<&'static str> {
        let mut json = String::new();
        json.push_str("{\n");
        let _ = writeln!(json, "  \"scale\": {scale},");
        let _ = writeln!(
            json,
            "  \"host_threads\": {},",
            gsplat::par::effective_threads(0, usize::MAX)
        );

        json.push_str("  \"experiments\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(
                json,
                "    {{\"name\": \"{}\", \"wall_ms\": {:.3}}}{comma}",
                r.name, r.wall_ms
            );
        }
        json.push_str("  ],\n");

        let sections: [(&str, SectionFn); 6] = [
            ("pipeline", pipeline_measurement),
            ("kernel", kernel_measurement),
            ("sequence", sequence_measurement),
            ("serve", serve_measurement),
            ("asset", asset_measurement),
            ("lint", |_| crate::lint::lint_measurement()),
        ];
        for (i, (name, measure)) in sections.iter().enumerate() {
            let body = measure(scale);
            check_json(&body).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("section `{name}` is not valid JSON ({e}); refusing a partial report"),
                )
            })?;
            let comma = if i + 1 < sections.len() { "," } else { "" };
            let _ = writeln!(json, "  \"{name}\": {body}{comma}");
        }
        json.push_str("}\n");
        check_json(&json).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("assembled report is not valid JSON ({e})"),
            )
        })?;

        // Atomic replace: a crash mid-write leaves the previous report
        // intact instead of a truncated one.
        let tmp = "BENCH_pipeline.json.tmp";
        std::fs::write(tmp, &json)?;
        let written = std::fs::metadata(tmp)?.len();
        if written != json.len() as u64 {
            let _ = std::fs::remove_file(tmp);
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("short write: {written} of {} bytes", json.len()),
            ));
        }
        std::fs::rename(tmp, REPORT_PATH)?;
        Ok(REPORT_PATH)
    }
}

/// One section of the report: its measurement body as a JSON string,
/// parameterized on the benchmark scene scale.
type SectionFn = fn(f32) -> String;

/// Minimal structural JSON validator for the report sections: verifies
/// the text is exactly one JSON value (objects, arrays, strings with
/// escapes, finite numbers, `true`/`false`/`null`). Rust's `{:.3}` on a
/// non-finite float prints `NaN`/`inf`, which no JSON parser accepts —
/// this is the check that turns such a measurement into a failed run
/// instead of a silently unreadable trail.
fn check_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_value(b, &mut i).map_err(|e| format!("{e} at byte {i}"))?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn skip_value(b: &[u8], i: &mut usize) -> Result<(), &'static str> {
    skip_ws(b, i);
    match b.get(*i) {
        None => Err("unexpected end of input"),
        Some(b'{') => skip_composite(b, i, b'}', true),
        Some(b'[') => skip_composite(b, i, b']', false),
        Some(b'"') => skip_string(b, i),
        Some(b't') => skip_lit(b, i, "true"),
        Some(b'f') => skip_lit(b, i, "false"),
        Some(b'n') => skip_lit(b, i, "null"),
        Some(b'-' | b'0'..=b'9') => skip_number(b, i),
        Some(_) => Err("unexpected character"),
    }
}

fn skip_composite(b: &[u8], i: &mut usize, close: u8, keyed: bool) -> Result<(), &'static str> {
    *i += 1; // opening bracket
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return Ok(());
    }
    loop {
        if keyed {
            skip_ws(b, i);
            skip_string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err("expected `:` after object key");
            }
            *i += 1;
        }
        skip_value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(c) if *c == close => {
                *i += 1;
                return Ok(());
            }
            _ => return Err("expected `,` or closing bracket"),
        }
    }
}

fn skip_string(b: &[u8], i: &mut usize) -> Result<(), &'static str> {
    if b.get(*i) != Some(&b'"') {
        return Err("expected string");
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => match b.get(*i + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 2,
                Some(b'u') => {
                    let hex = b.get(*i + 2..*i + 6).ok_or("truncated \\u escape")?;
                    if !hex.iter().all(|c| c.is_ascii_hexdigit()) {
                        return Err("bad \\u escape");
                    }
                    *i += 6;
                }
                _ => return Err("bad escape"),
            },
            0x00..=0x1f => return Err("raw control character in string"),
            _ => *i += 1,
        }
    }
    Err("unterminated string")
}

fn skip_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), &'static str> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err("bad literal")
    }
}

fn skip_number(b: &[u8], i: &mut usize) -> Result<(), &'static str> {
    // JSON grammar: -?int frac? exp? — in particular no `NaN`, `inf`,
    // leading `+`, bare `.` or hex.
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let int0 = *i;
    while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
        *i += 1;
    }
    if *i == int0 {
        return Err("number missing integer digits");
    }
    if b[int0] == b'0' && *i > int0 + 1 {
        return Err("leading zero in number");
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        let f0 = *i;
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
        if *i == f0 {
            return Err("number missing fraction digits");
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        let e0 = *i;
        while b.get(*i).is_some_and(|c| c.is_ascii_digit()) {
            *i += 1;
        }
        if *i == e0 {
            return Err("number missing exponent digits");
        }
    }
    Ok(())
}

/// Frame-sequence measurement for the JSON trail: a 16-frame coherent
/// flythrough on the outdoor archetype — per-frame parity is asserted
/// inside [`crate::sequence::measure_sequence`] before timing, and the
/// incremental-vs-full re-sort speedup plus the retired-ratio trajectory
/// endpoints are recorded.
fn sequence_measurement(scale: f32) -> String {
    let m = crate::sequence::measure_sequence(2, scale.min(0.1), crate::sequence::SEQUENCE_FRAMES);
    let p =
        crate::sequence::measure_preprocess(2, scale.min(0.1), crate::sequence::SEQUENCE_FRAMES);
    format!(
        "{{\"scene\": \"{}\", \"frames\": {}, \"visible_splats\": {}, \"incremental_sort_ms\": {:.4}, \"full_sort_ms\": {:.4}, \"sort_speedup\": {:.3}, \"repaired_frames\": {}, \"radix_fallbacks\": {}, \"retired_ratio_first\": {:.4}, \"retired_ratio_last\": {:.4}, \"preprocess\": {{\"frames\": {}, \"index_build_ms\": {:.4}, \"indexed_ms\": {:.4}, \"full_ms\": {:.4}, \"prior_full_ms\": {:.4}, \"speedup\": {:.3}, \"speedup_vs_full\": {:.3}, \"cells_skipped\": {}, \"cells_refreshed\": {}, \"cells_reprojected\": {}, \"gaussians_skipped\": {}, \"gaussians_refreshed\": {}, \"gaussians_reprojected\": {}}}}}",
        m.scene,
        m.frames,
        m.visible_splats,
        m.incremental_sort_ms,
        m.full_sort_ms,
        m.sort_speedup,
        m.repaired_frames,
        m.radix_fallbacks,
        m.retired_ratio_first,
        m.retired_ratio_last,
        p.frames,
        p.index_build_ms,
        p.indexed_ms,
        p.full_ms,
        p.prior_full_ms,
        p.speedup,
        p.speedup_vs_full,
        p.cull.cells_skipped,
        p.cull.cells_refreshed,
        p.cull.cells_reprojected,
        p.cull.gaussians_skipped,
        p.cull.gaussians_refreshed,
        p.cull.gaussians_reprojected
    )
}

/// Multi-stream serving measurement for the JSON trail: aggregate
/// throughput vs concurrent stream count over one shared scene and index
/// (parity-gated inside [`crate::serve::measure_serve`] — every stream of
/// a 4-stream server is asserted bit-exact against its solo session
/// before timing), plus the fault-injection outcomes, the
/// overload-degradation smoke (recorded rung traces, occupancy
/// schema-gated to sum to the produced frames) and the cross-stream
/// batched-preprocessing comparison (parity-gated; round occupancy
/// schema-gated to sum to the preprocessed frames).
fn serve_measurement(scale: f32) -> String {
    let points = crate::serve::measure_serve(2, scale.min(0.06), crate::serve::SERVE_FRAMES);
    let mut body = String::new();
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "      {{\"streams\": {}, \"total_frames\": {}, \"wall_ms\": {:.3}, \"aggregate_fps\": {:.2}, \"index_share\": {:.3}, \"repaired_frames\": {}, \"radix_fallbacks\": {}, \"gaussians_skipped\": {}, \"gaussians_refreshed\": {}, \"gaussians_reprojected\": {},\n       \"streams_detail\": [\n{}       ]}}{comma}",
            p.streams,
            p.total_frames,
            p.wall_ms,
            p.aggregate_fps,
            p.index_share,
            p.resort.repaired,
            p.resort.radix_fallbacks,
            p.cull.gaussians_skipped,
            p.cull.gaussians_refreshed,
            p.cull.gaussians_reprojected,
            stream_details_json(&p.details, "        "),
        );
    }
    let faults = crate::serve::measure_serve_faults(2, scale.min(0.04), 4);
    let degrade =
        crate::serve::measure_serve_degrade(2, scale.min(0.03), crate::serve::DEGRADE_FRAMES);
    let batch = crate::serve::measure_serve_batch(2, scale.min(0.06), crate::serve::BATCH_FRAMES);
    // Schema gates for the batch block: the occupancy histogram must
    // account for exactly the preprocessed frames (Σ (i+1)·occupancy[i]
    // == batched + solo), and the stereo stream must have paired both
    // eyes on every round — a histogram that doesn't add up is a
    // bookkeeping bug, not a measurement.
    for p in &batch.points {
        let accounted: usize = p
            .occupancy
            .iter()
            .enumerate()
            .map(|(i, n)| (i + 1) * n)
            .sum();
        assert_eq!(
            accounted,
            p.batched_frames + p.solo_frames,
            "serve.batch schema: occupancy {:?} at {} streams must sum to the {} preprocessed frames",
            p.occupancy,
            p.streams,
            p.batched_frames + p.solo_frames
        );
    }
    assert_eq!(
        batch.stereo_paired_rounds, batch.stereo_rounds,
        "serve.batch schema: stereo pairs must batch on 100% of rounds"
    );
    // Schema gate: a rung occupancy that does not account for every
    // produced frame is a bookkeeping bug, not a measurement — refuse to
    // write it into the trail.
    for d in &degrade.streams {
        assert_eq!(
            d.occupancy.iter().sum::<usize>(),
            d.frames,
            "serve.degrade schema: stream `{}` rung occupancy {:?} must sum to its {} produced frames",
            d.name,
            d.occupancy,
            d.frames
        );
    }
    let mut batch_points = String::new();
    for (i, p) in batch.points.iter().enumerate() {
        let comma = if i + 1 < batch.points.len() { "," } else { "" };
        let occupancy = p
            .occupancy
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            batch_points,
            "      {{\"streams\": {}, \"total_frames\": {}, \"unbatched_wall_ms\": {:.3}, \"unbatched_fps\": {:.2}, \"batched_wall_ms\": {:.3}, \"batched_fps\": {:.2}, \"speedup\": {:.3}, \"preprocess_ms_per_stream\": {:.4}, \"batched_frames\": {}, \"solo_frames\": {}, \"fallback_ratio\": {:.4}, \"occupancy\": [{occupancy}]}}{comma}",
            p.streams,
            p.total_frames,
            p.unbatched_wall_ms,
            p.unbatched_fps,
            p.batched_wall_ms,
            p.batched_fps,
            p.speedup,
            p.preprocess_ms_per_stream,
            p.batched_frames,
            p.solo_frames,
            p.fallback_ratio,
        );
    }
    format!(
        "{{\"scene\": \"Train\", \"frames_per_stream\": {}, \"points\": [\n{body}    ],\n    \"faults\": {{\"seed\": {}, \"streams\": [\n{}    ]}},\n    \"degrade\": {{\"period_ms\": {}, \"baseline_phase\": \"{}\", \"baseline_frames\": {}, \"frames_saved\": {}, \"streams\": [\n{}    ]}},\n    \"batch\": {{\"frames_per_stream\": {}, \"stereo_rounds\": {}, \"stereo_paired_rounds\": {}, \"points\": [\n{batch_points}    ]}}}}",
        crate::serve::SERVE_FRAMES,
        faults.seed,
        stream_details_json(&faults.streams, "      "),
        degrade.period_ms,
        degrade.baseline_phase.escape_default(),
        degrade.baseline_frames,
        degrade.frames_saved,
        degrade_streams_json(&degrade.streams, "      "),
        batch.frames,
        batch.stereo_rounds,
        batch.stereo_paired_rounds,
    )
}

/// Renders the overload-degradation outcomes (recorded rung trace,
/// per-rung occupancy, hysteresis/brownout step counters) as a JSON
/// array body, one object per line at `indent`.
fn degrade_streams_json(details: &[crate::serve::DegradeStreamDetail], indent: &str) -> String {
    let mut body = String::new();
    let ints = |xs: &[usize]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    for (i, d) in details.iter().enumerate() {
        let comma = if i + 1 < details.len() { "," } else { "" };
        let rungs = d
            .rungs
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            body,
            "{indent}{{\"name\": \"{}\", \"phase\": \"{}\", \"frames\": {}, \"deadline_misses\": {}, \"rungs\": [{rungs}], \"rung_occupancy\": [{}], \"steps_down\": {}, \"steps_up\": {}, \"brownout_steps\": {}}}{comma}",
            d.name,
            d.phase.escape_default(),
            d.frames,
            d.deadline_misses,
            ints(&d.occupancy),
            d.steps_down,
            d.steps_up,
            d.brownout_steps,
        );
    }
    body
}

/// Renders per-stream health counters (phase incl. eviction/failure
/// reason, p50/p99 latency, deadline misses, dropped frames, retries) as
/// a JSON array body, one object per line at `indent`.
fn stream_details_json(details: &[crate::serve::StreamDetail], indent: &str) -> String {
    let mut body = String::new();
    for (i, d) in details.iter().enumerate() {
        let comma = if i + 1 < details.len() { "," } else { "" };
        let _ = writeln!(
            body,
            "{indent}{{\"name\": \"{}\", \"phase\": \"{}\", \"frames\": {}, \"frames_dropped\": {}, \"deadline_misses\": {}, \"retries\": {}, \"latency_p50_ms\": {:.4}, \"latency_p99_ms\": {:.4}}}{comma}",
            d.name,
            d.phase.escape_default(),
            d.frames,
            d.frames_dropped,
            d.deadline_misses,
            d.retries,
            d.latency_p50_ms,
            d.latency_p99_ms,
        );
    }
    body
}

/// Scene-asset measurement for the JSON trail: checksummed encode/decode
/// throughput, the seeded corruption-detection sweep, quarantine
/// counters and the hot-reload rollback gate (parity-gated inside
/// [`crate::asset::measure_asset`] — the quarantined load is rendered
/// bit-exact against a rebuilt survivor scene before reporting).
fn asset_measurement(scale: f32) -> String {
    let m = crate::asset::measure_asset(2, scale.min(0.1));
    format!(
        "{{\"scene\": \"{}\", \"gaussians\": {}, \"bytes\": {}, \"encode_ms\": {:.4}, \"decode_ms\": {:.4}, \"decode_mb_s\": {:.2}, \"corruptions_tested\": {}, \"corruptions_detected\": {}, \"quarantine_total\": {}, \"quarantine_kept\": {}, \"reload_refused\": {}, \"reload_epoch\": {}}}",
        m.scene,
        m.gaussians,
        m.bytes,
        m.encode_ms,
        m.decode_ms,
        m.decode_mb_s,
        m.corruptions_tested,
        m.corruptions_detected,
        m.quarantine_total,
        m.quarantine_kept,
        m.reload_refused,
        m.reload_epoch,
    )
}

/// Fragment-kernel measurement for the JSON trail: the retired-tile ratio
/// and bound-skipped iterations on the indoor archetype.
fn kernel_measurement(scale: f32) -> String {
    let m = crate::kernel::measure_sw_kernels(1, scale.min(0.12));
    format!(
        "{{\"scene\": \"{}\", \"retired_tile_ratio\": {:.4}, \"bound_skipped_iterations\": {}}}",
        m.scene, m.retired_tile_ratio, m.bound_skipped_iterations
    )
}

/// Renders the canonical scene (Lego) once per variant and once per host
/// threading mode, returning the JSON object: simulated cycles + speedups
/// vs the baseline variant, and host wall time serial vs parallel.
fn pipeline_measurement(scale: f32) -> String {
    let spec = &EVALUATED_SCENES[4];
    let scene = spec.generate_scaled(scale.min(0.12));
    let cam = scene.default_camera();
    let mut scratch = FrameScratch::default();

    let mut variants = String::new();
    let mut base_cycles = 0u64;
    for (i, v) in PipelineVariant::ALL.iter().enumerate() {
        let r = Renderer::new(GpuConfig::default(), *v);
        let t0 = Instant::now();
        let frame = r.render_with(&scene, &cam, &mut scratch);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if i == 0 {
            base_cycles = frame.stats.total_cycles;
        }
        let comma = if i + 1 < PipelineVariant::ALL.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            variants,
            "      {{\"variant\": \"{}\", \"cycles\": {}, \"speedup_vs_baseline\": {:.4}, \"host_wall_ms\": {:.3}}}{comma}",
            v.label(),
            frame.stats.total_cycles,
            base_cycles as f64 / frame.stats.total_cycles.max(1) as f64,
            wall_ms
        );
    }

    // Host-side serial vs parallel wall time for the full frame loop.
    let time_with = |threads: usize| -> f64 {
        let cfg = GpuConfig {
            threads,
            ..GpuConfig::default()
        };
        let r = Renderer::new(cfg, PipelineVariant::HetQm);
        let mut scratch = FrameScratch::default();
        r.render_with(&scene, &cam, &mut scratch); // warm scratch
        let t0 = Instant::now();
        let reps = 3;
        for _ in 0..reps {
            r.render_with(&scene, &cam, &mut scratch);
        }
        t0.elapsed().as_secs_f64() * 1e3 / reps as f64
    };
    let serial_ms = time_with(1);
    let parallel_ms = time_with(0);

    format!(
        "{{\n    \"scene\": \"{}\",\n    \"variants\": [\n{variants}    ],\n    \"host_serial_ms\": {serial_ms:.3},\n    \"host_parallel_ms\": {parallel_ms:.3},\n    \"host_speedup\": {:.3}\n  }}",
        spec.name,
        serial_ms / parallel_ms.max(1e-9)
    )
}

#[cfg(test)]
mod tests {
    use super::check_json;

    #[test]
    fn validator_accepts_report_shapes() {
        for ok in [
            "{}",
            "[]",
            "{\"a\": 1, \"b\": [1.5, -2e-3, \"x\\n\"], \"c\": {\"d\": null}}",
            "{\"deny_clean\": true, \"reason\": \"§9 — proven\"}",
            "  {\"pad\": 0}  ",
        ] {
            assert!(check_json(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn validator_rejects_non_json() {
        for bad in [
            "{\"x\": NaN}",
            "{\"x\": inf}",
            "{\"x\": 1,}",
            "{\"x\" 1}",
            "{\"x\": 01}",
            "{\"x\": .5}",
            "{\"unterminated",
            "{} trailing",
            "",
        ] {
            assert!(check_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn lint_measurement_is_valid_json() {
        assert!(check_json(&crate::lint::lint_measurement()).is_ok());
    }
}
