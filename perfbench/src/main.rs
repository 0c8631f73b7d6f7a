//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-fleet|paper-eval> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload takes its camera paths from `--seed` (the scenes are
//! the paper's Table II stand-ins), sets up [`SETUP_REPS`] times
//! (reporting the median as `setup_s`), warms up, measures whole units of
//! work (server runs, evaluation passes) until `--seconds`
//! have passed, then checks the outputs against an independent
//! reference. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run records spans around the calls into each layer and reports the
//! per-layer metrics instead.
//!
//! Workloads:
//! * `serve-fleet` — a warm fleet of viewers with distinct orbit and
//!   flythrough cameras on a batching server; no two cameras are
//!   translations of each other, so batching is bypassed.
//! * `paper-eval` — the paper's evaluation matrix: every evaluated scene ×
//!   orbit viewpoints × the four pipeline variants, one cold frame at a
//!   time through the parallel single-frame renderer.

mod eval;
mod report;
mod serve;

use report::Outcome;

/// Host threads every workload uses: the serve pool's workers and the
/// single-frame renderer's fork-join width. Fixed rather than taken from
/// the host so runs on different machines do the same work.
pub const HOST_THREADS: usize = 2;

/// How many times each workload sets up before it measures. It sets up
/// once more after every measured unit; `setup_s` is the median of all.
pub const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <serve-fleet|paper-eval> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse_args();
    let outcome: Outcome = match args.workload.as_str() {
        "serve-fleet" => serve::fleet(args.seed, args.seconds, args.trace),
        "paper-eval" => eval::paper_eval(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload: {other}");
            usage()
        }
    };
    println!("{}", outcome.to_json());
}
