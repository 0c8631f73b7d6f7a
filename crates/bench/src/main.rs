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
//!                           # serve-faults / serve --faults (fault-injection smoke)
//!                           # serve-degrade / serve --degrade (overload quality-ladder smoke)
//!                           # serve-batch / serve --batch (cross-stream batched preprocessing)
//!                           # asset (checksummed scene assets, corruption sweep)
//!                           # lint (vrlint invariant check, per-rule tallies)
//! figures all               # everything, in paper order
//! ```
//!
//! Environment:
//! * `VRPIPE_SCALE` — linear scene scale (default 0.12; ratios are
//!   scale-stable, see DESIGN.md §2).
//! * `VRPIPE_VIEWPOINTS` — viewpoints for fig21 (default 8).

mod ablation;
mod analysis;
mod asset;
mod common;
mod evaluation;
mod kernel;
mod lint;
mod motivation;
mod report;
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
    ("serve-faults", serve::serve_faults),
    ("serve-degrade", serve::serve_degrade),
    ("serve-batch", serve::serve_batch),
    ("asset", asset::asset),
    ("lint", lint::lint),
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
    println!(
        "VR-Pipe figure harness (scale = {})",
        common::default_scale()
    );
    let mut report = report::Report::default();
    for arg in &args {
        if arg == "all" {
            for (name, f) in EXPERIMENTS {
                report.run(name, *f);
            }
            continue;
        }
        // `figures serve --faults` / `--degrade` are the CI spellings of
        // the fault-injection and overload-degradation smokes.
        let arg = match arg.as_str() {
            "--faults" => "serve-faults",
            "--degrade" => "serve-degrade",
            "--batch" => "serve-batch",
            a => a,
        };
        match EXPERIMENTS.iter().find(|(n, _)| *n == arg) {
            Some((name, f)) => report.run(name, *f),
            None => {
                eprintln!("unknown experiment: {arg}");
                std::process::exit(2);
            }
        }
    }
    match report.write(common::default_scale()) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => {
            // A missing benchmark trail is a failed run: CI must not read
            // a stale BENCH_pipeline.json as this invocation's result.
            eprintln!("could not write {}: {e}", report::REPORT_PATH);
            std::process::exit(1);
        }
    }
}
