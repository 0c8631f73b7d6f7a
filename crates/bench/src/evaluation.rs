//! Main evaluation experiments: Tables I–III and Figs. 16–19.

use gpu_sim::config::GpuConfig;
use gsplat::scene::EVALUATED_SCENES;
use vrpipe::PipelineVariant::{Baseline, Het, HetQm, Qm};
use vrpipe::{EnergyModel, HardwareCost};

use crate::common::{banner, eval_scenes, geomean};

/// Table I: the simulation configuration.
pub fn table1() {
    banner("Table I", "Simulation configuration");
    let c = GpuConfig::default();
    let rows: Vec<(&str, String)> = vec![
        ("# GPC", c.gpcs.to_string()),
        (
            "# SIMT Cores",
            format!(
                "{} ({} CUDA Cores)",
                c.simt_cores,
                c.simt_cores * c.lanes_per_core
            ),
        ),
        ("SIMT Core Freq.", format!("{} MHz", c.core_freq_mhz)),
        (
            "Lanes per SIMT Core",
            format!("{} (4 warp schedulers)", c.lanes_per_core),
        ),
        (
            "Raster Tile Size",
            format!("{0}x{0} pixels", c.raster_tile_px),
        ),
        (
            "Tile Grid Size",
            format!(
                "{0}x{0} pixels ({1}x{1} tiles)",
                c.tile_grid_px(),
                c.tile_grid_tiles
            ),
        ),
        ("# of TGC Bins", c.tgc_bins.to_string()),
        ("TGC Bin Size", format!("{} primitives", c.tgc_bin_size)),
        ("# of TC Bins", c.tc_bins.to_string()),
        ("TC Bin Size", format!("{} quads", c.tc_bin_size)),
        (
            "CROP Cache Size",
            format!(
                "{} KB, {}B line",
                c.crop_cache_bytes / 1024,
                c.cache_line_bytes
            ),
        ),
        (
            "ROP Throughput",
            format!("{} quads/cycle (RGBA16F)", c.crop_quads_per_cycle()),
        ),
    ];
    for (k, v) in rows {
        println!("{k:<24} {v}");
    }
}

/// Table II: the evaluated workloads.
pub fn table2() {
    banner(
        "Table II",
        "Evaluated workloads (procedurally generated stand-ins; DESIGN.md §2)",
    );
    println!(
        "{:<8} {:>12} {:>12} {:<18}",
        "scene", "resolution", "#Gaussians", "type"
    );
    for s in &EVALUATED_SCENES {
        println!(
            "{:<8} {:>12} {:>12} {:<18}",
            s.name,
            format!("{}x{}", s.width, s.height),
            s.gaussians,
            format!("{:?}", s.kind)
        );
    }
}

/// Fig. 16: the headline speedups of QM / HET / HET+QM over the baseline.
pub fn fig16() {
    banner("Fig. 16", "Speedup of VR-Pipe over the baseline GPU");
    println!(
        "{:<8} {:>9} {:>7} {:>7} {:>8}",
        "scene", "Baseline", "QM", "HET", "HET+QM"
    );
    let mut per_variant: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for s in eval_scenes() {
        let base = s.draw(Baseline).stats.total_cycles as f64;
        let mut row = format!("{:<8} {:>8.2}x", s.scene.spec.name, 1.0);
        for (i, v) in [Qm, Het, HetQm].into_iter().enumerate() {
            let speedup = base / s.draw(v).stats.total_cycles as f64;
            per_variant[i].push(speedup);
            row += &format!(" {:>6.2}x", speedup);
        }
        println!("{row}");
    }
    println!(
        "{:<8} {:>8.2}x {:>6.2}x {:>6.2}x {:>6.2}x",
        "Geomean",
        1.0,
        geomean(&per_variant[0]),
        geomean(&per_variant[1]),
        geomean(&per_variant[2])
    );
    println!("-> paper: QM up to 1.49x, HET 1.80x avg, HET+QM 2.07x avg (up to 2.78x).");
}

/// Fig. 17: overall end-to-end speedup (preprocess + sort + rasterize) of
/// VR-Pipe over software (CUDA) and hardware (OpenGL) rendering, plus FPS.
pub fn fig17() {
    banner(
        "Fig. 17",
        "End-to-end speedup of VR-Pipe vs SW (CUDA) and HW (OpenGL) rendering",
    );
    println!(
        "{:<8} {:>12} {:>12} {:>8}",
        "scene", "vs SW-based", "vs HW-based", "FPS"
    );
    let mut vs_sw_all = Vec::new();
    let mut vs_hw_all = Vec::new();
    for s in eval_scenes() {
        let vrp = &s.draw(HetQm).time;
        let vs_sw = s.cuda_et().total_ms() / vrp.total_ms();
        let vs_hw = s.draw(Baseline).time.total_ms() / vrp.total_ms();
        vs_sw_all.push(vs_sw);
        vs_hw_all.push(vs_hw);
        println!(
            "{:<8} {:>11.2}x {:>11.2}x {:>8.1}",
            s.scene.spec.name,
            vs_sw,
            vs_hw,
            vrp.fps()
        );
    }
    println!(
        "{:<8} {:>11.2}x {:>11.2}x",
        "Geomean",
        geomean(&vs_sw_all),
        geomean(&vs_hw_all)
    );
    println!("-> paper: 2.05x over SW-based and 1.60x over HW-based on average.");
}

/// Fig. 18: reduction ratio of quads and fragments blended by the ROP.
pub fn fig18() {
    banner(
        "Fig. 18",
        "Reduction of ROP-blended quads and fragments vs baseline",
    );
    println!(
        "{:<8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "scene", "QM-frag", "HET-frag", "H+Q-frag", "QM-quad", "HET-quad", "H+Q-quad"
    );
    for s in eval_scenes() {
        let base = &s.draw(Baseline).stats;
        let ratio = |a: u64, b: u64| format!(" {:>7.2}x", a as f64 / b as f64);
        let (mut frags, mut quads) = (String::new(), String::new());
        for v in [Qm, Het, HetQm] {
            let st = &s.draw(v).stats;
            frags += &ratio(base.crop_fragments, st.crop_fragments);
            quads += &ratio(base.crop_quads, st.crop_quads);
        }
        println!("{:<8} |{frags} |{quads}", s.scene.spec.name);
    }
    println!("-> paper: HET reduces fragments 2.52x / quads 1.90x; QM adds 1.30x / 1.32x on top.");
}

/// Fig. 19: energy efficiency of VR-Pipe over the baseline GPU.
pub fn fig19() {
    banner(
        "Fig. 19",
        "Energy efficiency of VR-Pipe (HET+QM) over the baseline GPU",
    );
    println!("{:<8} {:>12}", "scene", "efficiency");
    let model = EnergyModel::default();
    let cfg = GpuConfig::default();
    let mut all = Vec::new();
    for s in eval_scenes() {
        let eff = model.efficiency(&cfg, &s.draw(Baseline).stats, &s.draw(HetQm).stats);
        all.push(eff);
        println!("{:<8} {:>11.2}x", s.scene.spec.name, eff);
    }
    println!("{:<8} {:>11.2}x", "Geomean", geomean(&all));
    println!("-> paper: 1.65x average (up to 2.15x).");
}

/// Table III: hardware cost of the VR-Pipe extensions.
pub fn table3() {
    banner("Table III", "Hardware cost of VR-Pipe (per GPC)");
    let cost = HardwareCost::for_config(&GpuConfig::default());
    println!(
        "Tile Grid Coalescing Unit   {:>8} B  ({:.2} KB)",
        cost.tgc_bytes,
        cost.tgc_bytes as f64 / 1024.0
    );
    println!(
        "Quad Reorder Unit           {:>8} B  ({:.2} KB)",
        cost.qru_bytes,
        cost.qru_bytes as f64 / 1024.0
    );
    println!(
        "Total                       {:>8} B  ({:.2} KB)",
        cost.total_bytes(),
        cost.total_kib()
    );
    println!("-> paper: 24.25 KB + 688 B = 24.92 KB.");
}
