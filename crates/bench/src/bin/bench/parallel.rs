//! Single- vs multi-thread wall-time comparison for the two hot paths
//! the `rtm-par` pool serves: the Fig. 4 Monte-Carlo and the Fig. 14
//! variant sweep. Fails if any `--threads` output differs from the
//! single-thread baseline bit for bit.

use crate::{fig4_mc, timed, Opts};
use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_model::montecarlo::PositionPdf;
use rtm_obs::json::Json;

pub(crate) fn run(opts: &Opts) -> Result<Json, String> {
    let (quick, threads) = (opts.quick, opts.threads);
    let mc_trials: u64 = if quick { 200_000 } else { 2_000_000 };
    let mut settings = if quick {
        let mut s = SweepSettings::quick();
        s.accesses = 60_000;
        s.workloads = None;
        s
    } else {
        SweepSettings::full()
    };
    settings.accesses = settings.accesses.min(500_000);

    let mut benches = Vec::new();
    let mut all_identical = true;
    // The extra fields are deterministic model outputs, not wall
    // clock: `obs-tool compare` gates them against the committed
    // `BENCH_parallel.json` baseline.
    let mut record = |name: &str, t1: f64, tn: f64, identical: bool, extra: Vec<(&str, Json)>| {
        eprintln!(
            "{name}: 1 thread {t1:.3} s, {threads} threads {tn:.3} s \
             ({:.2}x, outputs {})",
            t1 / tn,
            if identical { "identical" } else { "DIFFER" }
        );
        all_identical &= identical;
        let mut fields = vec![
            ("name", Json::Str(name.to_string())),
            ("secs_1_thread", Json::Num(t1)),
            ("secs_n_threads", Json::Num(tn)),
            ("speedup", Json::Num(t1 / tn)),
            ("identical_output", Json::Bool(identical)),
        ];
        fields.extend(extra);
        benches.push(Json::obj(fields));
    };

    eprintln!("fig4 Monte-Carlo ({mc_trials} trials x 3 panels)...");
    let (t1, base) = timed(|| fig4_mc(mc_trials, 2015, 1));
    let (tn, alt) = timed(|| fig4_mc(mc_trials, 2015, threads));
    let success_sum: f64 = base.iter().map(PositionPdf::success_probability).sum();
    record(
        "fig4_montecarlo",
        t1,
        tn,
        base == alt,
        vec![("success_probability_sum", Json::Num(success_sum))],
    );

    eprintln!(
        "fig14 variant sweep ({} workloads x {} variants x {} accesses)...",
        settings.profiles().len(),
        RtVariant::ALL.len(),
        settings.accesses
    );
    let (t1, base) = timed(|| SimSweep::run_variants_with_threads(&settings, &RtVariant::ALL, 1));
    let (tn, alt) =
        timed(|| SimSweep::run_variants_with_threads(&settings, &RtVariant::ALL, threads));
    let cells: f64 = base.by_variant.values().map(|m| m.len() as f64).sum();
    let cycles: f64 = base
        .by_variant
        .values()
        .flat_map(|m| m.values())
        .map(|r| r.cycles as f64)
        .sum();
    let shift_cycles: f64 = base
        .by_variant
        .values()
        .flat_map(|m| m.values())
        .map(|r| r.shift_cycles as f64)
        .sum();
    record(
        "fig14_sweep",
        t1,
        tn,
        base.by_variant == alt.by_variant,
        vec![
            ("cells", Json::Num(cells)),
            ("total_cycles", Json::Num(cycles)),
            ("total_shift_cycles", Json::Num(shift_cycles)),
        ],
    );

    if !all_identical {
        return Err("DETERMINISM REGRESSION: multi-thread output differs".to_string());
    }

    Ok(Json::obj(vec![
        ("schema", Json::Str("rtm-bench-parallel/v1".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("quick", Json::Bool(quick)),
        ("mc_trials", Json::Num(mc_trials as f64)),
        ("sweep_accesses", Json::Num(settings.accesses as f64)),
        ("benches", Json::Arr(benches)),
    ]))
}
