//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p rtm-bench --bin repro -- --exp all
//! cargo run --release -p rtm-bench --bin repro -- --exp fig11 --quick
//! cargo run --release -p rtm-bench --bin repro -- --list
//! cargo run --release -p rtm-bench --bin repro -- \
//!     --exp fig14 --quick --metrics m.json --events e.json --progress
//! ```
//!
//! `--metrics` / `--events` switch on the rtm-obs metric store and
//! span trace and dump their snapshots as JSON on exit (the events
//! dump is the cycle-stamped span forest, stamped `"schema_version":
//! 2`, and any ring-buffer drops are reported on stderr);
//! `--metrics` writes the unlabeled metrics and `--labels <path>` the
//! labeled ones, and either flag switches the one store on;
//! `--attribution` appends exact cycle-attribution tables to the
//! `serve` and `fig14` reports (and writes them as CSV + JSON when
//! `--csv` is given); `--progress` prints heartbeat lines for long
//! sweeps; `--accesses` overrides the per-cell trace length;
//! `--threads N` sets the worker count for the Monte-Carlo and sweep
//! fan-out (default: all cores; output is bit-identical for any
//! value); `--engine mc|analytic` selects the position-error engine
//! for fig4/ablation PDFs and the fig14 sampling path (default:
//! analytic closed form); `--policy fcfs|fr-fcfs|shift-aware` narrows
//! the `serve` experiment's report to one scheduling policy (FCFS rows
//! stay as the baseline); `--tenants N` switches the `serve`
//! experiment into the scaled multi-tenant front-door mode (N tenant
//! sessions with token-bucket admission control, per-class latency
//! percentiles and fairness), with `--classes SPEC` choosing the SLO
//! class mix (for example `latency:1,throughput:2`);
//! `--fault-model engine|calibrated|pinning` selects the fault process
//! drawing sampled shift outcomes (sweeps and the `matrix`
//! experiment); `--scheme NAME` narrows the `matrix` experiment to one
//! protection scheme (repeatable); `--list-schemes` /
//! `--list-fault-models` print the accepted vocabularies and exit.

use rtm_bench::{is_known_experiment, EXPERIMENTS};
use rtm_core::experiments::{
    ablation, design, energy_exp, errormodel, frontdoor, matrix, motivation, performance,
    reliability_exp, serving, RtVariant, SimSweep, SweepSettings,
};
use rtm_front::ClassSpec;
use rtm_mem::hierarchy::LlcChoice;
use rtm_model::analytic::Engine;
use rtm_serve::SchedPolicy;

struct Options {
    experiments: Vec<String>,
    quick: bool,
    csv_dir: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
    events: Option<std::path::PathBuf>,
    labels: Option<std::path::PathBuf>,
    attribution: bool,
    progress: bool,
    accesses: Option<u64>,
    engine: Engine,
    policy: Option<SchedPolicy>,
    tenants: Option<u32>,
    classes: Option<ClassSpec>,
    fault_model: Option<rtm_track::fault::FaultModelChoice>,
    schemes: Option<Vec<RtVariant>>,
}

fn scheme_names() -> String {
    matrix::schemes()
        .iter()
        .map(|s| s.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn fault_model_names() -> String {
    rtm_track::fault::FaultModelChoice::ALL
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn parse_args() -> Result<Options, String> {
    let mut experiments = Vec::new();
    let mut quick = false;
    let mut csv_dir = None;
    let mut metrics = None;
    let mut events = None;
    let mut labels = None;
    let mut attribution = false;
    let mut progress = false;
    let mut accesses = None;
    let mut engine = Engine::default();
    let mut policy = None;
    let mut tenants = None;
    let mut classes = None;
    let mut fault_model: Option<rtm_track::fault::FaultModelChoice> = None;
    let mut schemes: Option<Vec<RtVariant>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--exp" => {
                let v = args.next().ok_or("--exp needs a value")?;
                if !is_known_experiment(&v) {
                    return Err(format!(
                        "unknown experiment {v}; known: all, {}",
                        EXPERIMENTS.join(", ")
                    ));
                }
                experiments.push(v);
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(std::path::PathBuf::from(v));
            }
            "--metrics" => {
                let v = args.next().ok_or("--metrics needs a file path")?;
                metrics = Some(std::path::PathBuf::from(v));
            }
            "--events" => {
                let v = args.next().ok_or("--events needs a file path")?;
                events = Some(std::path::PathBuf::from(v));
            }
            "--labels" => {
                let v = args.next().ok_or("--labels needs a file path")?;
                labels = Some(std::path::PathBuf::from(v));
            }
            "--attribution" => attribution = true,
            "--progress" => progress = true,
            "--threads" => {
                let v = args.next().ok_or("--threads needs a count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads: not a number: {v}"))?;
                if n == 0 {
                    return Err("--threads must be positive".into());
                }
                rtm_par::set_threads(n);
            }
            "--accesses" => {
                let v = args.next().ok_or("--accesses needs a count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--accesses: not a number: {v}"))?;
                if n == 0 {
                    return Err("--accesses must be positive".into());
                }
                accesses = Some(n);
            }
            "--engine" => {
                let v = args.next().ok_or("--engine needs mc or analytic")?;
                engine = v.parse()?;
            }
            "--policy" => {
                let v = args
                    .next()
                    .ok_or("--policy needs fcfs, fr-fcfs or shift-aware")?;
                policy = Some(SchedPolicy::by_name(&v).ok_or(format!(
                    "--policy: unknown policy {v} (fcfs, fr-fcfs, shift-aware)"
                ))?);
            }
            "--tenants" => {
                let v = args.next().ok_or("--tenants needs a count")?;
                let n: u32 = v
                    .parse()
                    .map_err(|_| format!("--tenants: not a number: {v}"))?;
                if n == 0 {
                    return Err("--tenants must be positive".into());
                }
                tenants = Some(n);
            }
            "--classes" => {
                let v = args.next().ok_or("--classes needs a spec")?;
                classes = Some(ClassSpec::parse(&v).map_err(|e| format!("--classes: {e}"))?);
            }
            "--fault-model" => {
                let v = args.next().ok_or("--fault-model needs a value")?;
                fault_model =
                    Some(rtm_track::fault::FaultModelChoice::parse(&v).ok_or(format!(
                        "--fault-model: unknown fault model {v}; known: {}",
                        fault_model_names()
                    ))?);
            }
            "--scheme" => {
                let v = args.next().ok_or("--scheme needs a value")?;
                let s = RtVariant::parse(&v)
                    .filter(|s| matrix::schemes().contains(s))
                    .ok_or(format!(
                        "--scheme: unknown scheme {v}; known: {}",
                        scheme_names()
                    ))?;
                schemes.get_or_insert_with(Vec::new).push(s);
            }
            "--list-schemes" => {
                for s in matrix::schemes() {
                    println!("{}", s.name());
                }
                std::process::exit(0);
            }
            "--list-fault-models" => {
                for f in rtm_track::fault::FaultModelChoice::ALL {
                    println!("{}", f.name());
                }
                std::process::exit(0);
            }
            "--quick" => quick = true,
            "--list" => {
                println!("all");
                for e in EXPERIMENTS {
                    println!("{e}");
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Ok(Options {
        experiments,
        quick,
        csv_dir,
        metrics,
        events,
        labels,
        attribution,
        progress,
        accesses,
        engine,
        policy,
        tenants,
        classes,
        fault_model,
        schemes,
    })
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if opts.metrics.is_some() || opts.labels.is_some() {
        rtm_obs::global().registry().set_enabled(true);
    }
    if opts.events.is_some() {
        rtm_obs::global().spans().set_enabled(true);
    }
    if opts.progress {
        rtm_obs::set_progress(true);
    }
    let mut settings = if opts.quick {
        let mut s = SweepSettings::quick();
        s.accesses = 60_000;
        s.workloads = None; // all workloads, short traces
        s
    } else {
        SweepSettings::full()
    };
    if let Some(n) = opts.accesses {
        settings.accesses = n;
    }
    // The sweep's per-shift outcome sampling always uses the selected
    // engine's fault model (observational; timing is unaffected);
    // `--fault-model` swaps in a different fault process.
    settings.sample_engine = Some(opts.engine);
    settings.fault_model = opts.fault_model.unwrap_or_default();
    let mc_trials: u64 = if opts.quick { 200_000 } else { 2_000_000 };

    let wanted = |name: &str| opts.experiments.iter().any(|e| e == "all" || e == name);

    // The simulation sweep is the expensive part: one pass per workload
    // serves the variant figures (10, 11, 14) and the LLC-choice figures
    // (16-18) alike, and every figure slices the shared results.
    let variant_figs = wanted("fig10") || wanted("fig11") || wanted("fig14");
    let choice_figs = wanted("fig16") || wanted("fig17") || wanted("fig18");
    let variants: &[RtVariant] = if variant_figs { &RtVariant::ALL } else { &[] };
    let choices: &[LlcChoice] = if choice_figs { &LlcChoice::ALL } else { &[] };
    let sweep = (variant_figs || choice_figs).then(|| {
        eprintln!(
            "running simulation sweep ({} workloads x {} lanes x {} accesses)...",
            settings.profiles().len(),
            SimSweep::lanes(variants, choices),
            settings.accesses
        );
        SimSweep::run(&settings, variants, choices)
    });
    // `--tenants` switches the serve experiment into the scaled
    // multi-tenant front-door mode; the classic four-tenant policy ×
    // workload × scheme sweep runs otherwise.
    let front_sweep = if let (true, Some(tenants)) = (wanted("serve"), opts.tenants) {
        let mut s = frontdoor::FrontSettings::for_tenants(tenants, opts.quick);
        if let Some(classes) = &opts.classes {
            s.classes = classes.clone();
        }
        eprintln!(
            "running front-door sweep ({} tenants [{}] x {} policies x {} offered requests)...",
            s.tenants,
            s.classes,
            SchedPolicy::ALL.len(),
            s.offered
        );
        let mut sweep = frontdoor::FrontSweep::run(&s);
        frontdoor::record_front_labels(&sweep);
        if let Some(p) = opts.policy {
            sweep.cells.retain(|c| c.policy == p);
        }
        Some(sweep)
    } else {
        None
    };
    // The scheme × fault-model matrix: `--scheme` narrows the rows
    // (repeatable) and an explicit `--fault-model` narrows the columns;
    // the full 7 × 3 cross runs by default.
    let matrix_result = if wanted("matrix") {
        let mut ms = if opts.quick {
            matrix::MatrixSettings::quick()
        } else {
            matrix::MatrixSettings::full()
        };
        ms.engine = opts.engine;
        if let Some(n) = opts.accesses {
            ms.accesses = n;
        }
        if let Some(schemes) = &opts.schemes {
            ms.schemes = schemes.clone();
        }
        if let Some(fm) = opts.fault_model {
            ms.fault_models = vec![fm];
        }
        eprintln!(
            "running scheme x fault-model matrix ({} schemes x {} fault models x {} accesses)...",
            ms.schemes.len(),
            ms.fault_models.len(),
            ms.accesses
        );
        Some(matrix::SchemeFaultMatrix::run(&ms))
    } else {
        None
    };
    let serve_sweep = if wanted("serve") && opts.tenants.is_none() {
        let s = if opts.quick {
            let mut s = serving::ServeSettings::quick();
            s.workloads = None; // all workloads, short runs
            s
        } else {
            serving::ServeSettings::full()
        };
        eprintln!(
            "running serving sweep ({} workloads x {} schemes x {} policies x {} requests)...",
            s.profiles().len(),
            serving::VARIANTS.len(),
            SchedPolicy::ALL.len(),
            s.requests
        );
        // `--policy` narrows the report to one policy (FCFS rows stay
        // as the comparison baseline); the sweep itself always runs the
        // full matrix so the summary has its reference points.
        let mut sweep = serving::ServeSweep::run(&s);
        // Labeled metrics cover the full matrix even when `--policy`
        // narrows the printed report.
        serving::record_serving_labels(&sweep);
        if let Some(p) = opts.policy {
            sweep
                .cells
                .retain(|c| c.policy == p || c.policy == SchedPolicy::Fcfs);
        }
        Some(sweep)
    } else {
        None
    };

    // Optional machine-readable CSV dumps for the simulation figures.
    if let Some(dir) = &opts.csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
        let write = |name: &str, content: String| {
            let path = dir.join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("error: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        };
        if variant_figs {
            let sweep = sweep.as_ref().expect("sweep ran");
            write(
                "fig10",
                reliability_exp::figure10_from(sweep, &settings).csv(),
            );
            write(
                "fig11",
                reliability_exp::figure11_from(sweep, &settings).csv(),
            );
            write("fig14", performance::figure14_from(sweep, &settings).csv());
        }
        if choice_figs {
            let sweep = sweep.as_ref().expect("sweep ran");
            write("fig16", performance::figure16_from(sweep, &settings).csv());
            write("fig17", energy_exp::figure17_from(sweep, &settings).csv());
            write("fig18", energy_exp::figure18_from(sweep, &settings).csv());
        }
        if let Some(sweep) = &serve_sweep {
            write("serve", serving::serving_csv(sweep));
        }
        if let Some(sweep) = &front_sweep {
            write("serve", frontdoor::front_csv(sweep));
        }
        if let Some(m) = &matrix_result {
            write("matrix", rtm_core::experiments::to_csv(&m.rows()));
        }
        if opts.attribution {
            let dump = |name: &str, table: &rtm_obs::attrib::AttributionTable| {
                let path = dir.join(format!("{name}.csv"));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                } else {
                    eprintln!("wrote {}", path.display());
                }
                let path = dir.join(format!("{name}.json"));
                if let Err(e) = rtm_obs::export::write_json(&path, &table.to_json()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                } else {
                    eprintln!("wrote {}", path.display());
                }
            };
            if variant_figs {
                dump(
                    "fig14_attribution",
                    &performance::figure14_attribution(
                        sweep.as_ref().expect("sweep ran"),
                        &settings,
                    ),
                );
            }
            if let Some(sweep) = &serve_sweep {
                dump("serve_attribution", &serving::serving_attribution(sweep));
            }
        }
    }

    let mut shown = 0;
    let mut section = |name: &str, body: &dyn Fn() -> String| {
        if wanted(name) {
            println!("==================== {name} ====================");
            println!("{}", body());
            shown += 1;
        }
    };

    section("fig1", &|| motivation::figure1().render());
    section("fig4", &|| {
        errormodel::figure4_experiment(mc_trials, 2015, opts.engine).render()
    });
    section("table2", &|| errormodel::table2_experiment().render());
    section("fig7", &|| design::figure7_experiment().render());
    section("table3", &|| design::table3_experiment().render());
    section("table5", &|| design::table5_experiment().render());
    section("fig10", &|| {
        reliability_exp::figure10_from(sweep.as_ref().expect("sweep ran"), &settings).render()
    });
    section("fig11", &|| {
        reliability_exp::figure11_from(sweep.as_ref().expect("sweep ran"), &settings).render()
    });
    section("fig12", &|| {
        reliability_exp::render_figure12(&reliability_exp::figure12_experiment(5.12e9))
    });
    section("fig13", &|| {
        design::render_figure13(&design::figure13_experiment())
    });
    section("fig14", &|| {
        let sweep = sweep.as_ref().expect("sweep ran");
        let mut out = performance::figure14_from(sweep, &settings).render();
        if opts.attribution {
            out.push('\n');
            out.push_str(&performance::render_figure14_attribution(
                &performance::figure14_attribution(sweep, &settings),
            ));
        }
        out
    });
    section("fig15", &|| {
        performance::render_figure15(&performance::figure15_experiment(200))
    });
    section("fig16", &|| {
        let f = performance::figure16_from(sweep.as_ref().expect("sweep ran"), &settings);
        let mut out = f.render();
        out.push_str("\nProtection overhead vs unprotected racetrack memory:\n");
        for (k, v) in performance::protection_overhead_summary(&f) {
            out.push_str(&format!("  {k}: {:+.2}%\n", v * 100.0));
        }
        out
    });
    section("fig17", &|| {
        energy_exp::figure17_from(sweep.as_ref().expect("sweep ran"), &settings).render()
    });
    section("fig18", &|| {
        let sweep = sweep.as_ref().expect("sweep ran");
        let f17 = energy_exp::figure17_from(sweep, &settings);
        let f18 = energy_exp::figure18_from(sweep, &settings);
        let mut out = f18.render();
        out.push_str("\nHeadline energy deltas:\n");
        for (k, v) in energy_exp::energy_summary(&f17, &f18) {
            out.push_str(&format!("  {k}: {:+.1}%\n", v * 100.0));
        }
        out
    });

    section("matrix", &|| {
        matrix_result.as_ref().expect("matrix ran").render()
    });
    section("ablation", &|| {
        ablation::render_ablations(mc_trials / 4, 2015, 5.12e9, opts.engine)
    });
    section("serve", &|| {
        if let Some(sweep) = &front_sweep {
            return frontdoor::render_front(sweep);
        }
        let sweep = serve_sweep.as_ref().expect("sweep ran");
        let mut out = serving::render_serving(sweep);
        if opts.attribution {
            out.push('\n');
            out.push_str(&serving::render_serving_attribution(
                &serving::serving_attribution(sweep),
            ));
        }
        out
    });

    // Machine-readable run artefacts: metric store and span trace
    // snapshots, written even on a partial run so a crash-free exit
    // always leaves usable telemetry behind.
    let write_json = |path: &std::path::Path, doc: &rtm_obs::json::Json| {
        if let Err(e) = rtm_obs::export::write_json(path, doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("wrote {}", path.display());
    };
    if let Some(path) = &opts.metrics {
        write_json(path, &rtm_obs::global().registry().snapshot().to_json());
    }
    if let Some(path) = &opts.events {
        let trace = rtm_obs::global().spans().snapshot();
        eprintln!(
            "trace: {} recorded, {} dropped",
            trace.spans.len(),
            trace.dropped
        );
        if trace.dropped > 0 {
            eprintln!("  (ring capacity exceeded; oldest entries evicted first)");
        }
        write_json(path, &trace.to_json());
    }
    if let Some(path) = &opts.labels {
        write_json(
            path,
            &rtm_obs::global().registry().snapshot().labeled_json(),
        );
    }

    if shown == 0 {
        eprintln!("nothing to do");
        std::process::exit(1);
    }
}
