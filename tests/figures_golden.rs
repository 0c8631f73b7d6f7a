//! Golden pin of the `figures` harness output.
//!
//! Every number `figures` prints is a simulated cycle count, a counter or
//! a ratio of them, so its stdout is a pure function of the experiment
//! list and `VRPIPE_SCALE`. This test reruns the paper's figures at a
//! small scale and compares the output byte for byte with
//! `tests/golden/figures_0.06.txt`, so a change that moves any figure
//! shows up here. The pin detects changes; it makes no fidelity claim
//! (ratios at 0.06 have not settled, see DESIGN.md §2).
//!
//! The run is split at [`SPLIT_BEFORE`] into two processes, one per
//! test, so the two halves run in parallel.

use std::process::{Command, Output};

/// The experiments of the golden file, in file order.
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

/// The first experiment of the second half.
const SPLIT_BEFORE: &str = "fig18";

/// Banner line that opens [`SPLIT_BEFORE`]'s output.
const SPLIT_BANNER: &str = "\n=== Fig. 18:";

const GOLDEN: &str = include_str!("golden/figures_0.06.txt");

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("VRPIPE_SCALE", "0.06")
        .output()
        .expect("figures runs")
}

/// Runs `experiments` and returns their stdout without the harness's
/// first (header) line.
fn run_body(experiments: &[&str]) -> String {
    let out = figures(experiments);
    assert!(
        out.status.success(),
        "figures {experiments:?} failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let (header, body) = stdout.split_once('\n').expect("header line");
    assert_eq!(header, "VR-Pipe figure harness (scale = 0.06)");
    body.to_string()
}

/// Asserts `actual == expected`, printing the first differing lines and
/// the command that regenerates the golden file otherwise. `expected`
/// starts at line `first_line` of the golden file.
fn assert_matches(actual: &str, expected: &str, first_line: usize) {
    if actual == expected {
        return;
    }
    let mut report = String::new();
    let (mut a, mut e) = (actual.lines(), expected.lines());
    for line in first_line.. {
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
        "figures output differs from tests/golden/figures_0.06.txt:\n{report}\
         If the change is intended, regenerate the file from the repository root:\n  \
         VRPIPE_SCALE=0.06 cargo run --release -p bench --bin figures -- {} \
         > tests/golden/figures_0.06.txt",
        EXPERIMENTS.join(" ")
    );
}

/// The golden file split at [`SPLIT_BANNER`]: the header line, the first
/// half's body and the second half's body.
fn golden_parts() -> (&'static str, &'static str, &'static str) {
    let (header, body) = GOLDEN.split_once('\n').expect("golden header line");
    let at = body
        .find(SPLIT_BANNER)
        .expect("golden file contains the split banner");
    (header, &body[..at], &body[at..])
}

fn split_index() -> usize {
    EXPERIMENTS
        .iter()
        .position(|e| *e == SPLIT_BEFORE)
        .expect("split experiment is listed")
}

#[test]
fn first_half_matches_golden() {
    let (header, first, _) = golden_parts();
    assert_eq!(header, "VR-Pipe figure harness (scale = 0.06)");
    let actual = run_body(&EXPERIMENTS[..split_index()]);
    assert_matches(&actual, first, 2);
}

#[test]
fn second_half_matches_golden() {
    let (_, first, second) = golden_parts();
    let actual = run_body(&EXPERIMENTS[split_index()..]);
    assert_matches(&actual, second, 2 + first.lines().count());
}

#[test]
fn no_arguments_and_unknown_experiments_exit_2() {
    for args in [&[][..], &["fig99"][..], &["fig1", "no-such-figure"][..]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "figures {args:?}");
        assert!(
            out.stdout.is_empty(),
            "figures {args:?} must fail before running anything"
        );
    }
}
