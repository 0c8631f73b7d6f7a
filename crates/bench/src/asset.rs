//! Scene-asset pipeline experiment: the size of the checksummed `.gspa`
//! encoding, a seeded corruption sweep (every damaged file must be
//! *detected* — a typed error, never a panic or a silent wrong load),
//! quarantine degradation counters, and the hot-reload rollback gate.
//!
//! Parity-gated like the other serving experiments: before anything is
//! reported, a quarantined load is rendered and asserted bit-exact
//! against a scene rebuilt from the surviving residents.

use gsplat::asset::faults::seeded_corruptions;
use gsplat::asset::{decode_scene, encode_scene, LoadPolicy};
use gsplat::math::Vec3;
use gsplat::preprocess::preprocess;
use gsplat::scene::EVALUATED_SCENES;
use swrender::cuda_like::{CudaLikeRenderer, SwConfig};
use vrpipe::{SceneSource, SequenceFrameRecord, Server, SharedScene};

use crate::common::{banner, default_scale};

/// Seed of the corruption sweep (replayable).
pub const CORRUPTION_SEED: u64 = 0xA55E7;

/// Corruptions injected per sweep.
pub const CORRUPTIONS: usize = 32;

/// FNV-1a over a color buffer's pixel bits.
fn image_digest(color: &gsplat::ColorBuffer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u32| {
        h = (h ^ v as u64).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in color.pixels() {
        mix(p.r.to_bits());
        mix(p.g.to_bits());
        mix(p.b.to_bits());
        mix(p.a.to_bits());
    }
    h
}

/// The `asset` experiment: checksummed encoding size, corruption
/// detection and quarantine/hot-reload robustness counters.
/// **Parity-gated**: the quarantined load renders bit-exact with a
/// rebuilt survivor scene before the counters are printed.
pub fn asset() {
    banner(
        "asset",
        "corruption-tolerant scene assets (CRC32 format, quarantine, hot reload)",
    );
    let spec = &EVALUATED_SCENES[2];
    let scene = spec.generate_scaled(default_scale().min(0.1));
    let bytes = encode_scene(&scene);
    let clean = decode_scene(&bytes, LoadPolicy::Strict).expect("clean bytes decode");
    assert!(clean.report.is_clean());

    // --- Seeded corruption sweep: every damaged file is detected. ---
    let plan = seeded_corruptions(CORRUPTION_SEED, bytes.len(), CORRUPTIONS);
    let detected = plan
        .iter()
        .filter(|c| decode_scene(&c.apply(&bytes), LoadPolicy::Quarantine).is_err())
        .count();
    assert_eq!(
        detected,
        plan.len(),
        "every seeded corruption must surface as a typed error"
    );

    // --- Quarantine probe + render parity gate. ---
    let mut poisoned = scene.clone();
    let n = poisoned.gaussians.len();
    poisoned.gaussians[n / 3].mean = Vec3::new(f32::NAN, 0.0, 0.0);
    poisoned.gaussians[2 * n / 3].opacity = -1.0;
    let loaded = decode_scene(&encode_scene(&poisoned), LoadPolicy::Quarantine)
        .expect("quarantine degrades");
    let mut survivors = poisoned.clone();
    let dropped: Vec<usize> = loaded.report.quarantined.iter().map(|q| q.index).collect();
    let mut i = 0usize;
    survivors.gaussians.retain(|_| {
        let keep = !dropped.contains(&i);
        i += 1;
        keep
    });
    let cam = survivors.default_camera();
    let a = preprocess(&loaded.scene, &cam);
    let b = preprocess(&survivors, &cam);
    let ra = CudaLikeRenderer::new(SwConfig::default(), false).render(
        &a.splats,
        cam.width(),
        cam.height(),
    );
    let rb = CudaLikeRenderer::new(SwConfig::default(), false).render(
        &b.splats,
        cam.width(),
        cam.height(),
    );
    assert_eq!(
        image_digest(&ra.color),
        image_digest(&rb.color),
        "quarantined load must render bit-exact with the rebuilt survivors"
    );

    // --- Hot-reload rollback gate on an idle server. ---
    let mut server: Server<SequenceFrameRecord> = Server::new(SharedScene::new(scene.clone()), 1);
    let mut corrupt = bytes.clone();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x10;
    let refused = server
        .reload_scene(SceneSource::Bytes(corrupt, LoadPolicy::Strict))
        .is_err();
    assert!(refused, "corrupt bytes must be refused");
    assert_eq!(
        server.scene_epoch(),
        0,
        "failed reload must not bump the epoch"
    );
    let outcome = server
        .reload_scene(SceneSource::Bytes(
            encode_scene(&poisoned),
            LoadPolicy::Quarantine,
        ))
        .expect("survivor swap succeeds");
    assert!(outcome.changed);
    assert_eq!(outcome.quarantined, dropped.len());

    println!(
        "'{}': {} Gaussians → {} bytes ({:.2} bytes/Gaussian)",
        spec.name,
        scene.len(),
        bytes.len(),
        bytes.len() as f64 / scene.len().max(1) as f64
    );
    println!(
        "  corruption sweep (seed {:#x}): {}/{} detected as typed errors",
        CORRUPTION_SEED,
        detected,
        plan.len()
    );
    println!(
        "  quarantine probe: {}/{} residents kept; corrupt reload refused = {}, survivor swap at epoch {}",
        loaded.report.kept, loaded.report.total, refused, outcome.epoch
    );
    println!("  parity gate passed: quarantined load renders bit-exact with rebuilt survivors");
}
