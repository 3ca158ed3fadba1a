//! Live paper-vs-measured report: reruns the simulation sweeps and
//! checks every headline claim of the paper against fresh numbers.
//!
//! ```text
//! cargo run --release -p rtm-bench --bin report            # full fidelity
//! cargo run --release -p rtm-bench --bin report -- --quick # ~30 s
//! cargo run --release -p rtm-bench --bin report -- --out report.md
//! cargo run --release -p rtm-bench --bin report -- \
//!     --quick --metrics m.json --events e.json --progress --threads 4
//! cargo run --release -p rtm-bench --bin report -- --engine mc
//! cargo run --release -p rtm-bench --bin report -- --fault-model pinning
//! ```
//!
//! Exits non-zero if any claim fails, so this doubles as a regression
//! gate for the reproduction. `--metrics` / `--events` dump the metric
//! store and the span trace as `repro` does.

use rtm_core::experiments::report::live_report;
use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::hierarchy::LlcChoice;

fn main() {
    let mut quick = false;
    let mut out: Option<std::path::PathBuf> = None;
    let mut metrics: Option<std::path::PathBuf> = None;
    let mut events: Option<std::path::PathBuf> = None;
    let mut engine = rtm_model::analytic::Engine::default();
    let mut fault_model = rtm_track::fault::FaultModelChoice::default();
    let mut args = std::env::args().skip(1);
    let path_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().unwrap_or_else(|| {
            eprintln!("error: {flag} needs a path");
            std::process::exit(2);
        })
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = Some(path_arg(&mut args, "--out").into()),
            "--metrics" => metrics = Some(path_arg(&mut args, "--metrics").into()),
            "--events" => events = Some(path_arg(&mut args, "--events").into()),
            "--progress" => rtm_obs::set_progress(true),
            "--engine" => match path_arg(&mut args, "--engine").parse() {
                Ok(e) => engine = e,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            },
            "--fault-model" => {
                let v = path_arg(&mut args, "--fault-model");
                match rtm_track::fault::FaultModelChoice::parse(&v) {
                    Some(f) => fault_model = f,
                    None => {
                        let known: Vec<_> = rtm_track::fault::FaultModelChoice::ALL
                            .iter()
                            .map(|f| f.name())
                            .collect();
                        eprintln!(
                            "error: --fault-model: unknown fault model {v}; known: {}",
                            known.join(", ")
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--list-fault-models" => {
                for f in rtm_track::fault::FaultModelChoice::ALL {
                    println!("{}", f.name());
                }
                std::process::exit(0);
            }
            "--threads" => {
                let n: usize = path_arg(&mut args, "--threads").parse().unwrap_or(0);
                if n == 0 {
                    eprintln!("error: --threads needs a positive count");
                    std::process::exit(2);
                }
                rtm_par::set_threads(n);
            }
            other => {
                eprintln!("error: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if metrics.is_some() {
        rtm_obs::global().registry().set_enabled(true);
    }
    if events.is_some() {
        rtm_obs::global().spans().set_enabled(true);
    }
    let mut settings = if quick {
        let mut s = SweepSettings::quick();
        s.accesses = 60_000;
        s.workloads = None;
        s
    } else {
        SweepSettings::full()
    };
    settings.sample_engine = Some(engine);
    settings.fault_model = fault_model;
    eprintln!(
        "running sweep ({} workloads x {} lanes x {} accesses)...",
        settings.profiles().len(),
        SimSweep::lanes(&RtVariant::ALL, &LlcChoice::ALL),
        settings.accesses
    );
    let report = live_report(&settings);
    let md = report.to_markdown();
    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &md) {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("wrote {}", path.display());
        }
        None => println!("{md}"),
    }
    let write_json = |path: &std::path::Path, doc: &rtm_obs::json::Json| {
        if let Err(e) = rtm_obs::export::write_json(path, doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    };
    if let Some(path) = &metrics {
        write_json(path, &rtm_obs::global().registry().snapshot().to_json());
    }
    if let Some(path) = &events {
        write_json(path, &rtm_obs::global().spans().snapshot().to_json());
    }
    if report.pass_rate() < 1.0 {
        eprintln!("REPRODUCTION REGRESSION: some claims failed");
        std::process::exit(1);
    }
}
