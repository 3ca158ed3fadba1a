//! Trace tooling: record synthetic workload traces to disk, inspect
//! them, and replay them through any LLC configuration.
//!
//! ```text
//! trace-tool record canneal 500000 canneal.rtmt [seed]
//! trace-tool info canneal.rtmt
//! trace-tool replay canneal.rtmt rm-adaptive
//! trace-tool serve canneal.rtmt shift-aware [requests]
//! trace-tool --events e.json serve canneal.rtmt shift-aware 2000
//! trace-tool --metrics m.json --events e.json --progress replay canneal.rtmt rm-adaptive
//! ```
//!
//! The leading `--metrics` / `--events` / `--progress` flags switch on
//! rtm-obs recording for any subcommand and dump JSON snapshots on
//! exit. The `--events` dump is the span trace (`"schema_version": 2`;
//! ring-buffer drop counts go to stderr). Under `serve` it holds one
//! `request` span per retained request, with `id` and `group`
//! attributes and `queue` / `dispatch` children, plus a root
//! `backpressure` instant per stall.

use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
use rtm_trace::replay::{read_trace, write_trace};
use rtm_trace::{TraceGenerator, WorkloadProfile};

fn usage() -> ! {
    eprintln!(
        "usage:\n  trace-tool [--metrics <f.json>] [--events <f.json>] [--progress] <command>\n  \
         trace-tool record <workload> <accesses> <file> [seed]\n  \
         trace-tool info <file>\n  trace-tool replay <file> <llc>\n  \
         trace-tool serve <file> <policy> [requests]\n\n\
         workloads: {}\nllcs: sram, stt-ram, rm-ideal, rm-bare, rm-pecc-o, rm-adaptive, rm-worst\n\
         policies: fcfs, fr-fcfs, shift-aware",
        WorkloadProfile::parsec()
            .iter()
            .map(|p| p.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// Parses a command-line value; a malformed one prints usage.
fn parse_or_usage<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| usage())
}

fn llc_by_name(name: &str) -> Option<LlcChoice> {
    Some(match name {
        "sram" => LlcChoice::SramBaseline,
        "stt-ram" => LlcChoice::SttRam,
        "rm-ideal" => LlcChoice::RacetrackIdeal,
        "rm-bare" => LlcChoice::RacetrackUnprotected,
        "rm-pecc-o" => LlcChoice::RacetrackPeccO,
        "rm-adaptive" => LlcChoice::RacetrackPeccSAdaptive,
        "rm-worst" => LlcChoice::RacetrackPeccSWorst,
        _ => return None,
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut metrics: Option<std::path::PathBuf> = None;
    let mut events: Option<std::path::PathBuf> = None;
    // Peel leading observability flags off before subcommand dispatch.
    while let Some(flag) = args.first().map(String::as_str) {
        match flag {
            "--metrics" | "--events" => {
                if args.len() < 2 {
                    eprintln!("error: {flag} needs a path");
                    usage();
                }
                let path = std::path::PathBuf::from(args.remove(1));
                match args.remove(0).as_str() {
                    "--metrics" => metrics = Some(path),
                    _ => events = Some(path),
                }
            }
            "--progress" => {
                rtm_obs::set_progress(true);
                args.remove(0);
            }
            _ => break,
        }
    }
    if metrics.is_some() {
        rtm_obs::global().registry().set_enabled(true);
    }
    if events.is_some() {
        rtm_obs::global().spans().set_enabled(true);
    }
    match args.first().map(String::as_str) {
        Some("record") if args.len() >= 4 => {
            let Some(profile) = WorkloadProfile::by_name(&args[1]) else {
                eprintln!("unknown workload {}", args[1]);
                usage();
            };
            let n: usize = parse_or_usage(&args[2]);
            let seed: u64 = args.get(4).map_or(2015, |s| parse_or_usage(s));
            let accesses = TraceGenerator::new(profile, seed).take_vec(n);
            let file = std::fs::File::create(&args[3]).unwrap_or_else(|e| {
                eprintln!("cannot create {}: {e}", args[3]);
                std::process::exit(2);
            });
            write_trace(std::io::BufWriter::new(file), &accesses).unwrap_or_else(|e| {
                eprintln!("write failed: {e}");
                std::process::exit(2);
            });
            println!(
                "recorded {n} accesses of {} (seed {seed}) to {}",
                profile.name, args[3]
            );
        }
        Some("info") if args.len() == 2 => {
            let file = std::fs::File::open(&args[1]).unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", args[1]);
                std::process::exit(2);
            });
            let accesses = read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("read failed: {e}");
                std::process::exit(2);
            });
            let writes = accesses.iter().filter(|a| a.is_write).count();
            let lines: std::collections::HashSet<u64> =
                accesses.iter().map(|a| a.addr >> 6).collect();
            let max_addr = accesses.iter().map(|a| a.addr).max().unwrap_or(0);
            println!("accesses:      {}", accesses.len());
            println!(
                "writes:        {} ({:.1}%)",
                writes,
                100.0 * writes as f64 / accesses.len().max(1) as f64
            );
            println!(
                "unique lines:  {} ({} KiB touched)",
                lines.len(),
                lines.len() * 64 / 1024
            );
            println!(
                "address span:  {:.1} MiB",
                max_addr as f64 / (1 << 20) as f64
            );
        }
        Some("replay") if args.len() == 3 => {
            let Some(choice) = llc_by_name(&args[2]) else {
                eprintln!("unknown llc {}", args[2]);
                usage();
            };
            let file = std::fs::File::open(&args[1]).unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", args[1]);
                std::process::exit(2);
            });
            let accesses = read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("read failed: {e}");
                std::process::exit(2);
            });
            let mut sys = Hierarchy::new(choice);
            let r = sys.run_trace(&accesses);
            r.record_metrics();
            println!("llc:           {choice}");
            println!("cycles:        {}", r.cycles);
            println!("llc miss rate: {:.2}%", r.llc.cache.miss_rate() * 100.0);
            println!("shift ops:     {}", r.llc.shift_ops);
            println!("shift cycles:  {}", r.shift_cycles);
            println!(
                "dyn energy:    {:.4} mJ",
                r.llc_dynamic_energy().as_millijoules()
            );
            println!(
                "DUE MTTF:      {}",
                rtm_util::units::format_mttf(r.due_mttf())
            );
        }
        Some("serve") if args.len() >= 3 => {
            let Some(policy) = SchedPolicy::by_name(&args[2]) else {
                eprintln!("unknown policy {}", args[2]);
                usage();
            };
            let requests: Option<u64> = args.get(3).map(|s| parse_or_usage(s));
            let file = std::fs::File::open(&args[1]).unwrap_or_else(|e| {
                eprintln!("cannot open {}: {e}", args[1]);
                std::process::exit(2);
            });
            let accesses = read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
                eprintln!("read failed: {e}");
                std::process::exit(2);
            });
            let n = requests.unwrap_or(accesses.len() as u64);
            let cfg = ServeConfig::new(policy).with_requests(n.min(accesses.len() as u64));
            let r = ServeSim::new(cfg).run(&mut accesses.into_iter());
            println!("policy:        {policy}");
            println!("requests:      {}", r.requests);
            println!("cycles:        {}", r.cycles);
            println!("req/kcycle:    {:.2}", r.throughput_req_per_kcycle());
            println!(
                "queue delay:   p50 {} p95 {} p99 {} cycles",
                r.queue_delay.p50, r.queue_delay.p95, r.queue_delay.p99
            );
            println!(
                "service:       p50 {} p95 {} p99 {} cycles",
                r.service.p50, r.service.p95, r.service.p99
            );
            println!(
                "total:         p50 {} p95 {} p99 {} cycles",
                r.total.p50, r.total.p95, r.total.p99
            );
            println!("zero-shift:    {}", r.zero_shift_dispatches);
            println!("backpressure:  {}", r.backpressure_stalls);
            println!("shift cycles:  {}", r.llc.shift_cycles);
            println!();
            println!("per-tenant cycle attribution (components sum to total exactly):");
            print!("{}", rtm_core::experiments::render_table(&r.tenants.rows()));
        }
        _ => usage(),
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
        let trace = rtm_obs::global().spans().snapshot();
        eprintln!(
            "trace: {} recorded, {} dropped",
            trace.spans.len(),
            trace.dropped
        );
        write_json(path, &trace.to_json());
    }
}
