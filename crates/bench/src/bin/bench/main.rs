//! One harness for the six gated benchmark suites.
//!
//! ```text
//! cargo run --release -p rtm-bench --bin bench -- <suite> [--quick] [--threads N] [--out FILE]
//! ```
//!
//! `<suite>` is one of `codes`, `engine`, `front`, `parallel`, `scale`
//! or `serve`. A suite measures, runs every one of its gates, and hands
//! back either its document or the failed gate's message. The harness
//! stamps the document (`schema_version`, `git_commit`) and writes it
//! to `--out` (default `BENCH_<suite>.json`) only when every gate
//! passed, so a failing run never leaves a fresh baseline behind.
//! Exit codes: 0 ok, 1 a gate failed, 2 usage or I/O error.
//!
//! `--threads` (default: the host's available parallelism) sizes the
//! parallel leg of `engine`, `front`, `parallel` and `serve`. `codes`
//! and `scale` have no parallel leg and ignore it.

mod codes;
mod engine;
mod front;
mod parallel;
mod scale;
mod serve;

use rtm_model::montecarlo::{position_pdf_with_threads, PositionPdf};
use rtm_model::params::DeviceParams;
use rtm_obs::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// What a suite reads from the command line.
struct Opts {
    /// CI-sized inputs instead of the full run.
    quick: bool,
    /// Worker threads of the suite's parallel leg.
    threads: usize,
}

/// Measures, runs every gate, and returns the unstamped document or
/// the failed gate's message.
type Suite = fn(&Opts) -> Result<Json, String>;

const SUITES: [(&str, Suite); 6] = [
    ("codes", codes::run),
    ("engine", engine::run),
    ("front", front::run),
    ("parallel", parallel::run),
    ("scale", scale::run),
    ("serve", serve::run),
];

const USAGE: &str =
    "usage: bench <codes|engine|front|parallel|scale|serve> [--quick] [--threads N] [--out FILE]";

/// One timed leg: wall seconds plus whatever the run produced.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs `cell` on every `(a, b)` of `outer × inner` on `threads`
/// workers. Results come back in grid order, each with its wall time
/// in ms, so they are independent of the worker count.
fn run_grid<A, B, R>(
    outer: &[A],
    inner: &[B],
    threads: usize,
    cell: impl Fn(A, B) -> R + Sync,
) -> Vec<(A, B, f64, R)>
where
    A: Copy + Send + Sync,
    B: Copy + Send + Sync,
    R: Send,
{
    let grid: Vec<(A, B)> = outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect();
    let results = rtm_par::parallel_map_with(threads, grid.len(), |i| {
        let (a, b) = grid[i];
        timed(|| cell(a, b))
    });
    grid.into_iter()
        .zip(results)
        .map(|((a, b), (secs, r))| (a, b, secs * 1e3, r))
        .collect()
}

/// The three Fig. 4 Monte-Carlo panels (distances 1, 4 and 7).
fn fig4_mc(trials: u64, seed: u64, threads: usize) -> Vec<PositionPdf> {
    let params = DeviceParams::table1();
    [1u32, 4, 7]
        .iter()
        .map(|&d| {
            position_pdf_with_threads(
                &params,
                d,
                trials,
                rtm_util::rng::derive_seed(seed, d as u64),
                threads,
            )
        })
        .collect()
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Suite, Opts, PathBuf), String> {
    let name = args.next().ok_or("no suite given")?;
    let &(name, suite) = SUITES
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("unknown suite {name}"))?;
    let mut opts = Opts {
        quick: false,
        threads: rtm_par::available_parallelism(),
    };
    let mut out = PathBuf::from(format!("BENCH_{name}.json"));
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("--threads needs a positive count")?;
            }
            "--out" => out = args.next().ok_or("--out needs a path")?.into(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((suite, opts, out))
}

fn main() {
    let (suite, opts, out) = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let mut doc = suite(&opts).unwrap_or_else(|gate| {
        eprintln!("{gate}");
        std::process::exit(1);
    });
    rtm_bench::stamp::stamp(&mut doc);
    if let Err(e) = rtm_obs::export::write_json(&out, &doc) {
        eprintln!("error: cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!("wrote {}", out.display());
}
