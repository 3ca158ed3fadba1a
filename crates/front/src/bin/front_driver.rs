//! Front-door traffic driver: records multi-tenant traffic and replays
//! it against a `front-server` over a byte stream.
//!
//! Default mode spawns the sibling `front-server` binary and exchanges
//! frames over its stdin/stdout pipes — the full process-separated
//! path. `--emit FILE` records the request stream to a file instead
//! (serve it later with `front-server --in`), and `--decode FILE`
//! pretty-prints a saved response stream. `--verify` additionally runs
//! the same configuration in-process and fails unless the server's
//! summaries match bit-for-bit.

use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};

use rtm_front::class::ClassSpec;
use rtm_front::door::{run_front, FrontConfig};
use rtm_front::proto::{decode_all, encode_all, Frame, Verdict};
use rtm_front::wire::record_frames;
use rtm_serve::SchedPolicy;

struct Options {
    cfg: FrontConfig,
    policy: SchedPolicy,
    emit: Option<String>,
    decode: Option<String>,
    verify: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: front-driver [--tenants N] [--offered N] [--classes SPEC] [--seed N]\n\
         \u{20}                   [--window N] [--policy P] [--emit FILE | --decode FILE]\n\
         \u{20}                   [--verify]\n\
         \n\
         Default: spawn the sibling front-server and replay the recorded\n\
         traffic over its stdin/stdout. SPEC example: latency:1,throughput:2"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        cfg: FrontConfig::new(1_000),
        policy: SchedPolicy::ShiftAware,
        emit: None,
        decode: None,
        verify: false,
    };
    let mut offered_set = false;
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>| args.next().unwrap_or_else(|| usage());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tenants" => {
                opts.cfg.tenants = value(&mut args).parse().unwrap_or_else(|_| usage());
                if !offered_set {
                    opts.cfg.offered = (opts.cfg.tenants as u64).saturating_mul(12).max(24_000);
                }
            }
            "--offered" => {
                opts.cfg.offered = value(&mut args).parse().unwrap_or_else(|_| usage());
                offered_set = true;
            }
            "--classes" => match ClassSpec::parse(&value(&mut args)) {
                Ok(spec) => opts.cfg.classes = spec,
                Err(e) => {
                    eprintln!("front-driver: {e}");
                    usage();
                }
            },
            "--seed" => opts.cfg.seed = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--window" => opts.cfg.window = value(&mut args).parse().unwrap_or_else(|_| usage()),
            "--policy" => {
                let name = value(&mut args);
                match SchedPolicy::by_name(&name) {
                    Some(p) => opts.policy = p,
                    None => {
                        eprintln!("front-driver: unknown policy `{name}`");
                        usage();
                    }
                }
            }
            "--emit" => opts.emit = Some(value(&mut args)),
            "--decode" => opts.decode = Some(value(&mut args)),
            "--verify" => opts.verify = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("front-driver: unknown argument `{other}`");
                usage();
            }
        }
    }
    // A zero count would only fail later, inside the door or the server.
    for (flag, count) in [
        ("--tenants", u64::from(opts.cfg.tenants)),
        ("--offered", opts.cfg.offered),
        ("--window", u64::from(opts.cfg.window)),
    ] {
        if count == 0 {
            eprintln!("front-driver: {flag} must be positive");
            usage();
        }
    }
    opts
}

/// Prints the per-class table of a response stream's summaries.
fn print_summaries(frames: &[Frame]) {
    println!(
        "class       tenants   admitted       shed  deferrals  completed     p50     p95     p99"
    );
    for f in frames {
        if let Frame::ClassSummary {
            class,
            tenants,
            admitted,
            shed,
            deferred,
            completed,
            p50,
            p95,
            p99,
        } = f
        {
            println!(
                "{:<10} {:>8} {:>10} {:>10} {:>10} {:>10} {:>7} {:>7} {:>7}",
                class.label(),
                tenants,
                admitted,
                shed,
                deferred,
                completed,
                p50,
                p95,
                p99
            );
        }
    }
    for f in frames {
        if let Frame::Summary {
            cycles,
            admitted,
            shed,
            deferred,
            completed,
            fairness_bits,
        } = f
        {
            println!(
                "total: {admitted} admitted, {shed} shed, {deferred} deferrals, \
                 {completed} completed in {cycles} cycles, fairness {:.2}",
                f64::from_bits(*fairness_bits)
            );
        }
    }
}

/// Checks the server's summaries against an in-process run.
fn verify(cfg: &FrontConfig, policy: SchedPolicy, response: &[Frame]) -> bool {
    let internal = run_front(cfg, policy);
    let mut ok = true;
    for f in response {
        if let Frame::Summary {
            cycles,
            admitted,
            shed,
            deferred,
            completed,
            fairness_bits,
        } = f
        {
            ok &= *cycles == internal.serve.cycles
                && *admitted == internal.admitted()
                && *shed == internal.shed()
                && *deferred == internal.deferred()
                && *completed == internal.completed()
                && *fairness_bits == internal.fairness_ratio().to_bits();
        }
        if let Frame::ClassSummary {
            class,
            admitted,
            shed,
            completed,
            p99,
            ..
        } = f
        {
            let local = internal.classes.iter().find(|c| c.class == *class);
            ok &= local.is_some_and(|c| {
                c.admitted == *admitted
                    && c.shed == *shed
                    && c.completed == *completed
                    && c.latency.p99 == *p99
            });
        }
    }
    if ok {
        eprintln!("front-driver: wire replay matches the in-process run bit-for-bit");
    } else {
        eprintln!("front-driver: MISMATCH between wire replay and in-process run");
    }
    ok
}

fn main() -> ExitCode {
    let opts = parse_args();

    if let Some(path) = &opts.decode {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("front-driver: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match decode_all(&bytes) {
            Ok(frames) => {
                print_summaries(&frames);
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("front-driver: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let request = encode_all(&record_frames(&opts.cfg));

    if let Some(path) = &opts.emit {
        if let Err(e) = std::fs::write(path, &request) {
            eprintln!("front-driver: {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "front-driver: recorded {} requests ({} bytes) to {path}",
            opts.cfg.offered,
            request.len()
        );
        return ExitCode::SUCCESS;
    }

    // Spawn the sibling server and exchange frames over its pipes.
    let server = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("front-server")))
        .filter(|p| p.exists());
    let Some(server) = server else {
        eprintln!("front-driver: front-server binary not found next to front-driver");
        return ExitCode::FAILURE;
    };
    let mut child = match Command::new(&server)
        .arg("--policy")
        .arg(opts.policy.label())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("front-driver: spawning {}: {e}", server.display());
            return ExitCode::FAILURE;
        }
    };
    // The server reads its whole stdin before writing, so write-then-
    // read (with stdin dropped to signal EOF) cannot deadlock.
    {
        let mut stdin = child.stdin.take().expect("piped stdin");
        if let Err(e) = stdin.write_all(&request) {
            eprintln!("front-driver: writing request stream: {e}");
            let _ = child.kill();
            return ExitCode::FAILURE;
        }
    }
    let mut response_bytes = Vec::new();
    if let Err(e) = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_end(&mut response_bytes)
    {
        eprintln!("front-driver: reading response stream: {e}");
        let _ = child.kill();
        return ExitCode::FAILURE;
    }
    match child.wait() {
        Ok(status) if status.success() => {}
        Ok(status) => {
            eprintln!("front-driver: server exited with {status}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("front-driver: waiting for server: {e}");
            return ExitCode::FAILURE;
        }
    }
    let response = match decode_all(&response_bytes) {
        Ok(frames) => frames,
        Err(e) => {
            eprintln!("front-driver: decoding response stream: {e}");
            return ExitCode::FAILURE;
        }
    };
    let answered = response
        .iter()
        .filter(|f| matches!(f, Frame::Response { .. }))
        .count() as u64;
    if answered != opts.cfg.offered {
        eprintln!(
            "front-driver: expected {} responses, got {answered}",
            opts.cfg.offered
        );
        return ExitCode::FAILURE;
    }
    let shed = response
        .iter()
        .filter(|f| {
            matches!(
                f,
                Frame::Response {
                    verdict: Verdict::Shed,
                    ..
                }
            )
        })
        .count() as u64;
    eprintln!(
        "front-driver: {} requests answered over the wire ({} done, {} shed)",
        answered,
        answered - shed,
        shed
    );
    print_summaries(&response);
    if opts.verify && !verify(&opts.cfg, opts.policy, &response) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
