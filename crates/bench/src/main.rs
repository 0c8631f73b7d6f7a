//! `figures` — regenerates every table and figure of the VR-Pipe paper.
//!
//! Usage:
//!
//! ```text
//! figures <experiment>...   # fig1 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//!                           # table1 table2 table3
//!                           # fig16 fig17 fig18 fig19
//!                           # fig20 tilebins fig21 fig22 fig23
//!                           # kernel (tile retirement in the fragment kernels)
//!                           # sequence (temporal-coherence frame sequences)
//!                           # serve (multi-stream serving over one shared scene)
//!                           # serve-batch (cross-stream batched preprocessing)
//!                           # asset (checksummed scene assets, corruption sweep)
//! figures all               # everything, in paper order
//! ```
//!
//! Every number printed is a simulated cycle count, a counter or a ratio
//! of them, so the output is a pure function of the experiment list and
//! the two variables below. Host time is measured by `perfbench`, not
//! here. `tests/figures_golden.rs` pins the output.
//!
//! Environment:
//! * `VRPIPE_SCALE` — linear scene scale (default 0.12). Ratios still
//!   drift with scale below about 0.5 (speedups and reductions settle
//!   only from there on), so compare numbers at one scale.
//! * `VRPIPE_VIEWPOINTS` — viewpoints for fig21 (default 8; 0 and
//!   unparsable values fall back to the default).

mod ablation;
mod analysis;
mod asset;
mod common;
mod evaluation;
mod kernel;
mod motivation;
mod sequence;
mod serve;

/// Experiment registry in paper order.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("fig1", motivation::fig1),
    ("fig5", motivation::fig5),
    ("fig6", motivation::fig6),
    ("fig7", motivation::fig7),
    ("fig8", motivation::fig8),
    ("fig9", motivation::fig9),
    ("fig10", motivation::fig10),
    ("fig11", motivation::fig11),
    ("table1", evaluation::table1),
    ("table2", evaluation::table2),
    ("fig16", evaluation::fig16),
    ("fig17", evaluation::fig17),
    ("fig18", evaluation::fig18),
    ("fig19", evaluation::fig19),
    ("table3", evaluation::table3),
    ("fig20", analysis::fig20),
    ("tilebins", analysis::tilebins),
    ("fig21", analysis::fig21),
    ("fig22", analysis::fig22),
    ("fig23", analysis::fig23),
    ("kernel", kernel::kernel),
    ("sequence", sequence::sequence),
    ("serve", serve::serve),
    ("serve-batch", serve::serve_batch),
    ("asset", asset::asset),
    ("ablation-tgc", ablation::ablation_tgc),
    ("ablation-tc", ablation::ablation_tc),
    ("ablation-cache", ablation::ablation_crop_cache),
    ("ablation-format", ablation::ablation_format),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: figures <experiment>... | all");
        eprintln!(
            "experiments: {}",
            EXPERIMENTS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
    // Resolve every argument before running anything, so a typo fails
    // fast instead of after the experiments in front of it.
    let mut run: Vec<fn()> = Vec::new();
    for arg in &args {
        if arg == "all" {
            run.extend(EXPERIMENTS.iter().map(|(_, f)| *f));
            continue;
        }
        match EXPERIMENTS.iter().find(|(n, _)| n == arg) {
            Some((_, f)) => run.push(*f),
            None => {
                eprintln!("unknown experiment: {arg}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "VR-Pipe figure harness (scale = {})",
        common::default_scale()
    );
    for f in run {
        f();
    }
}
