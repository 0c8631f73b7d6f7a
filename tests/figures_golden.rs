//! Golden pins of the `figures` harness output.
//!
//! Every number `figures` prints is a simulated cycle count, a counter or
//! a ratio of them, so its stdout is a pure function of the experiment
//! list and `VRPIPE_SCALE`. These tests rerun the paper's figures and
//! compare the output byte for byte with a golden file, so a change that
//! moves any figure shows up here.
//!
//! * `tests/golden/figures_0.06.txt` is the fast regression pin: every
//!   pinned experiment at scale 0.06. It detects changes; it makes no
//!   fidelity claim (ratios at 0.06 have not settled, see DESIGN.md §2).
//! * `tests/golden/figures_0.5.txt` pins the evaluation matrix (Figs. 16,
//!   18 and 19) at the default scale 0.5, the regime whose ratios match
//!   the full frame's. It runs only in optimised builds.

use std::process::{Command, Output};

/// The experiments of the 0.06 golden file, in file order.
const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig1",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "table3",
    "fig20",
    "tilebins",
    "fig22",
    "fig23",
    "kernel",
    "sequence",
    "asset",
    "serve",
    "serve-batch",
];

/// The experiments of the 0.5 golden file, in file order.
const MATRIX: &[&str] = &["fig16", "fig18", "fig19"];

const GOLDEN: &str = include_str!("golden/figures_0.06.txt");

const GOLDEN_0_5: &str = include_str!("golden/figures_0.5.txt");

fn figures(scale: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("VRPIPE_SCALE", scale)
        .output()
        .expect("figures runs")
}

/// Runs `experiments` at `scale` and returns their stdout.
fn run(scale: &str, experiments: &[&str]) -> String {
    let out = figures(scale, experiments);
    assert!(
        out.status.success(),
        "figures {experiments:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Asserts that `figures experiments` at `scale` prints `golden`, the
/// contents of `tests/golden/figures_{scale}.txt`. On a mismatch it
/// prints the first differing lines and the command that regenerates the
/// file.
fn assert_matches_golden(scale: &str, experiments: &[&str], golden: &str) {
    let actual = run(scale, experiments);
    if actual == golden {
        return;
    }
    let mut report = String::new();
    let (mut a, mut e) = (actual.lines(), golden.lines());
    for line in 1.. {
        match (a.next(), e.next()) {
            (None, None) => break,
            (x, y) if x == y => continue,
            (x, y) => {
                report.push_str(&format!(
                    "  line {line}:\n    golden: {}\n    actual: {}\n",
                    y.unwrap_or("<end of output>"),
                    x.unwrap_or("<end of output>"),
                ));
                if report.lines().count() >= 15 {
                    break;
                }
            }
        }
    }
    panic!(
        "figures output differs from tests/golden/figures_{scale}.txt:\n{report}\
         If the change is intended, regenerate the file from the repository root:\n  \
         VRPIPE_SCALE={scale} cargo run --release -p bench --bin figures -- {} \
         > tests/golden/figures_{scale}.txt",
        experiments.join(" ")
    );
}

/// The output's sections: each opens with a figure's banner line (the
/// `=== ` prefix stripped) and runs up to the next banner.
fn sections(output: &str) -> impl Iterator<Item = &str> {
    output.split("\n=== ").skip(1)
}

#[test]
fn figures_match_golden() {
    assert_matches_golden("0.06", EXPERIMENTS, GOLDEN);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: ~25 s optimised")]
fn evaluation_matrix_matches_golden_at_default_scale() {
    assert_matches_golden("0.5", MATRIX, GOLDEN_0_5);
}

/// The matrix figures share one table of (scene, variant) frames per
/// process, filled on first use. Run in another order, they fill it in
/// another order and must still print the golden bytes.
#[test]
fn matrix_figures_do_not_depend_on_fill_order() {
    let actual = run("0.06", &["fig19", "fig16", "fig22", "fig6"]);
    let mut seen = Vec::new();
    for section in sections(&actual) {
        let banner = section.lines().next().expect("banner line");
        let golden = sections(GOLDEN)
            .find(|g| g.lines().next() == Some(banner))
            .unwrap_or_else(|| panic!("golden file has no section {banner:?}"));
        assert_eq!(section, golden, "section {banner:?}");
        seen.push(banner);
    }
    assert_eq!(seen.len(), 4, "sections printed: {seen:?}");
}

#[test]
fn no_arguments_and_unknown_experiments_exit_2() {
    for args in [&[][..], &["fig99"][..], &["fig1", "no-such-figure"][..]] {
        let out = figures("0.06", args);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}");
        assert!(
            out.stdout.is_empty(),
            "figures {args:?} must fail before running anything"
        );
    }
}
