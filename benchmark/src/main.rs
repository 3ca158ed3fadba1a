//! The hifi-rtm benchmark: four workloads, host-time end-to-end metrics,
//! and a replay-reconciled per-layer trace.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! ```
//!
//! One workload runs in this process; several run one after another,
//! each in a child process of its own so peak RSS and allocator state
//! stay per workload. Every run prints human-readable rows, then a
//! detail JSON line, then — last — the result object
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 1
//! when a correctness check failed, 2 on a usage error.

#![forbid(unsafe_code)]

mod replay;
mod report;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{exit, Command};

use rtm_obs::json::Json;
use workloads::NAMES;

const USAGE: &str = "usage: benchmark [--workload NAME]... [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out FILE]";

/// Seed the committed baseline is measured with.
const DEFAULT_SEED: u64 = 2015;

/// Host seconds of timed reps per workload run: all four workloads in
/// about 70 s. `BENCHMARK.json` asks for 20 s per run.
const DEFAULT_SECONDS: f64 = 15.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    /// Indices into [`NAMES`], in run order.
    workloads: Vec<usize>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let index = NAMES.iter().position(|n| *n == name).ok_or(format!(
                    "unknown workload {name} (known: {})",
                    NAMES.join(", ")
                ))?;
                opts.workloads.push(index);
            }
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                };
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value()?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = (0..NAMES.len()).collect();
    }
    Ok(opts)
}

/// Runs one workload here; prints its rows and detail line.
fn run_here(index: usize, opts: &Opts) -> (Json, Json) {
    let report = workloads::run(index, opts.seed, opts.seconds, opts.quick, opts.trace);
    print!("{}", report.render());
    let detail = report.detail();
    println!("{detail}");
    (detail, report.result(opts.trace))
}

/// Runs one workload in a child process; forwards its rows and returns
/// its detail and result objects.
fn run_child(index: usize, opts: &Opts) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", NAMES[index]])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", NAMES[index]))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    if lines.len() < 2 {
        return Err(format!(
            "{} exited with {} and no result",
            NAMES[index], out.status
        ));
    }
    let (rows, tail) = lines.split_at(lines.len() - 2);
    for row in rows {
        println!("{row}");
    }
    println!("{}", tail[0]);
    let parse = |s: &str| Json::parse(s).map_err(|e| format!("{}: {e}", NAMES[index]));
    Ok((parse(tail[0])?, parse(tail[1])?))
}

/// Several workloads' results as one object, metrics keyed
/// `<workload>.<metric>`.
fn merge(results: &[(usize, Json)]) -> Json {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for (index, r) in results {
        correct &= r.get("correct") == Some(&Json::Bool(true));
        attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(pairs)) = r.get("metrics") {
            for (name, v) in pairs {
                metrics.push((format!("{}.{name}", NAMES[*index]), v.clone()));
            }
        }
    }
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() {
    let opts = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        exit(2);
    });
    let mut details = Vec::new();
    let mut results = Vec::new();
    let mut broken = false;
    for &index in &opts.workloads {
        let run = if opts.workloads.len() == 1 {
            Ok(run_here(index, &opts))
        } else {
            run_child(index, &opts)
        };
        match run {
            Ok((detail, result)) => {
                details.push(detail);
                results.push((index, result));
            }
            Err(e) => {
                eprintln!("error: {e}");
                broken = true;
            }
        }
    }
    if let Some(path) = &opts.out {
        let mut doc = Json::obj(vec![
            ("schema", Json::Str("rtm-benchmark/v1".to_string())),
            ("seed", Json::Str(opts.seed.to_string())),
            ("trace", Json::Bool(opts.trace)),
            ("quick", Json::Bool(opts.quick)),
            ("nproc", Json::Num(rtm_par::available_parallelism() as f64)),
            ("workloads", Json::Arr(details)),
        ]);
        rtm_bench::stamp::stamp(&mut doc);
        if let Err(e) = rtm_obs::export::write_json(path, &doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            broken = true;
        }
    }
    if broken {
        exit(1);
    }
    let result = match results.as_slice() {
        [(_, only)] => only.clone(),
        all => merge(all),
    };
    println!("{result}");
    if result.get("correct") != Some(&Json::Bool(true)) {
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Opts, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn defaults_run_every_workload_untraced() {
        let o = args("").unwrap();
        assert_eq!(o.workloads, vec![0, 1, 2, 3]);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert_eq!(o.seconds, DEFAULT_SECONDS);
        assert!(!o.trace && !o.quick && o.out.is_none());
    }

    #[test]
    fn run_flags_parse() {
        let o = args("--workload physical-rw --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(o.workloads, vec![3]);
        assert_eq!(o.seed, 7);
        assert!(o.trace);
        let o = args("--workload serve-saturated --workload paper-sweep --quick").unwrap();
        assert_eq!(o.workloads, vec![1, 0]);
        assert!(o.quick);
    }

    #[test]
    fn malformed_flags_are_errors() {
        for bad in [
            "--workload nope",
            "--workload",
            "--seed -1",
            "--seconds nan",
            "--seconds -2",
            "--trace 2",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn merge_prefixes_metrics_and_sums_checks() {
        let r = |ok: bool, failed: f64| {
            Json::obj(vec![
                ("correct", Json::Bool(ok)),
                ("attempted", Json::Num(3.0)),
                ("failed", Json::Num(failed)),
                (
                    "metrics",
                    Json::obj(vec![(
                        "setup_s",
                        Json::obj(vec![("value", Json::Num(1.0))]),
                    )]),
                ),
            ])
        };
        let m = merge(&[(0, r(true, 0.0)), (3, r(false, 1.0))]);
        assert_eq!(m.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(m.get("attempted").unwrap().as_u64(), Some(6));
        assert_eq!(m.get("failed").unwrap().as_u64(), Some(1));
        let metrics = m.get("metrics").unwrap();
        assert!(metrics.get("paper-sweep.setup_s").is_some());
        assert!(metrics.get("physical-rw.setup_s").is_some());
    }
}
