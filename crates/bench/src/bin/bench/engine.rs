//! Monte-Carlo vs analytic engine: wall-time and divergence on the
//! three paths the analytic engine replaces — the Fig. 4 position-error
//! PDFs (closed-form erf bands vs sampling), the per-shift outcome
//! sampling path (Gaussian reference vs Walker alias tables), and the
//! multi-shift convolution layer (composed offset distribution vs a
//! simulated run). One `benches` row per (engine, experiment). Fails if
//! any engine pair diverges beyond its 3σ binomial tolerance.

use crate::{fig4_mc, timed, Opts};
use rtm_model::analytic::AnalyticEngine;
use rtm_model::params::DeviceParams;
use rtm_model::shift::ShiftOutcome;
use rtm_obs::json::Json;
use rtm_track::fault::{AliasFaultModel, FaultModel, GaussianFaultModel};

/// 3σ binomial half-width for an empirical frequency of a class with
/// true probability `p` over `n` draws (the floor keeps zero-probability
/// classes from demanding exact zeros).
fn tolerance(p: f64, n: u64) -> f64 {
    3.0 * (p * (1.0 - p) / n as f64).sqrt() + 1e-12
}

struct Leg {
    experiment: &'static str,
    engine: &'static str,
    wall_ms: f64,
    max_abs_divergence: f64,
}

/// Tallies per-offset frequencies over `draws` STS outcomes at
/// `distance`, for offsets −3..=4 (everything else lands in the last
/// slot; the Gaussian path can produce it with negligible mass).
fn sample_frequencies(model: &mut dyn FaultModel, distance: u32, draws: u64) -> [f64; 9] {
    let mut counts = [0u64; 9];
    for _ in 0..draws {
        let slot = match model.sample(distance) {
            ShiftOutcome::Pinned { offset } if (-3..=4).contains(&offset) => (offset + 3) as usize,
            _ => 8,
        };
        counts[slot] += 1;
    }
    let mut freq = [0.0; 9];
    for (f, c) in freq.iter_mut().zip(counts.iter()) {
        *f = *c as f64 / draws as f64;
    }
    freq
}

pub(crate) fn run(opts: &Opts) -> Result<Json, String> {
    let (quick, threads) = (opts.quick, opts.threads);
    let mc_trials: u64 = if quick { 200_000 } else { 4_000_000 };
    let sample_draws: u64 = if quick { 1_000_000 } else { 5_000_000 };
    let conv_runs: u64 = if quick { 50_000 } else { 200_000 };
    let params = DeviceParams::table1();
    let analytic = AnalyticEngine::from_params(&params);

    let mut legs: Vec<Leg> = Vec::new();
    let mut all_within = true;
    let mut record =
        |experiment: &'static str, engine: &'static str, secs: f64, divergence: f64, tol: f64| {
            let within = divergence <= tol;
            eprintln!(
                "{experiment}/{engine}: {:.1} ms, max divergence {divergence:.3e} \
             (tolerance {tol:.3e}, {})",
                secs * 1e3,
                if within { "within" } else { "EXCEEDED" }
            );
            all_within &= within;
            legs.push(Leg {
                experiment,
                engine,
                wall_ms: secs * 1e3,
                max_abs_divergence: divergence,
            });
        };

    // ---- fig4 PDFs: sampled vs closed form --------------------------
    eprintln!("fig4 PDFs ({mc_trials} trials x 3 panels, {threads} threads)...");
    let (t_mc, mc_panels) = timed(|| fig4_mc(mc_trials, 2015, threads));
    let (t_an, an_panels) = timed(|| {
        [1u32, 4, 7]
            .iter()
            .map(|&d| analytic.position_pdf(d))
            .collect::<Vec<_>>()
    });
    let mut div = 0.0f64;
    let mut tol = 0.0f64;
    for (m, a) in mc_panels.iter().zip(an_panels.iter()) {
        for (mb, ab) in m.bins.iter().zip(a.bins.iter()) {
            let d = (mb.empirical - ab.probability()).abs();
            if d > div {
                div = d;
                tol = tolerance(ab.probability(), mc_trials);
            }
        }
    }
    record("fig4_pdf", "mc", t_mc, div, tol);
    record("fig4_pdf", "analytic", t_an, div, tol);
    eprintln!(
        "fig4 PDF speedup: {:.0}x (mc {:.1} ms vs analytic {:.3} ms)",
        t_mc / t_an.max(1e-9),
        t_mc * 1e3,
        t_an * 1e3
    );

    // ---- per-shift sampling path: Gaussian vs alias -----------------
    eprintln!("sampling path ({sample_draws} draws at distance 7)...");
    let expected: Vec<f64> = (-3i32..=4)
        .map(|k| analytic.sts_offset_probability(7, k))
        .collect();
    let worst = |freq: &[f64; 9]| {
        let mut div = 0.0f64;
        let mut tol = 0.0f64;
        for (i, &p) in expected.iter().enumerate() {
            let d = (freq[i] - p).abs();
            if d > div {
                div = d;
                tol = tolerance(p, sample_draws);
            }
        }
        // The overflow slot should be essentially empty.
        let d = freq[8];
        if d > div {
            div = d;
            tol = tolerance(0.0, sample_draws);
        }
        (div, tol)
    };
    let mut gaussian = GaussianFaultModel::new(&params, 42);
    let (t_g, f_g) = timed(|| sample_frequencies(&mut gaussian, 7, sample_draws));
    let mut alias = AliasFaultModel::new(&params, 43);
    let (t_a, f_a) = timed(|| sample_frequencies(&mut alias, 7, sample_draws));
    let (div_g, tol_g) = worst(&f_g);
    let (div_a, tol_a) = worst(&f_a);
    record("sampling_path", "mc", t_g, div_g, tol_g);
    record("sampling_path", "analytic", t_a, div_a, tol_a);
    eprintln!(
        "sampling speedup: {:.2}x (gaussian {:.1} ms vs alias {:.1} ms)",
        t_g / t_a.max(1e-9),
        t_g * 1e3,
        t_a * 1e3
    );

    // ---- multi-shift convolution vs simulated runs ------------------
    let sequence: Vec<u32> = (0..64u32).map(|i| 1 + i % 7).collect();
    eprintln!(
        "convolution ({}-shift sequence, {conv_runs} simulated runs)...",
        sequence.len()
    );
    let (t_conv, predicted) = timed(|| {
        analytic
            .sequence_offset_distribution(&sequence)
            .misalignment_probability()
    });
    let mut runner = GaussianFaultModel::new(&params, 44);
    let (t_sim, observed) = timed(|| {
        let mut misaligned = 0u64;
        for _ in 0..conv_runs {
            let mut position = 0i64;
            for &d in &sequence {
                if let ShiftOutcome::Pinned { offset } = runner.sample(d) {
                    position += offset as i64;
                }
            }
            if position != 0 {
                misaligned += 1;
            }
        }
        misaligned as f64 / conv_runs as f64
    });
    let div = (observed - predicted).abs();
    let tol = tolerance(predicted, conv_runs);
    record("convolution", "mc", t_sim, div, tol);
    record("convolution", "analytic", t_conv, div, tol);
    eprintln!("end-of-run misalignment: predicted {predicted:.4e}, observed {observed:.4e}");

    if !all_within {
        return Err("ENGINE PARITY REGRESSION: divergence beyond 3-sigma tolerance".to_string());
    }

    let rows: Vec<Json> = legs
        .iter()
        .map(|l| {
            Json::obj(vec![
                ("engine", Json::Str(l.engine.to_string())),
                ("experiment", Json::Str(l.experiment.to_string())),
                ("wall_ms", Json::Num(l.wall_ms)),
                ("max_abs_divergence", Json::Num(l.max_abs_divergence)),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("schema", Json::Str("rtm-bench-engine/v1".to_string())),
        ("quick", Json::Bool(quick)),
        ("threads", Json::Num(threads as f64)),
        ("mc_trials", Json::Num(mc_trials as f64)),
        ("sample_draws", Json::Num(sample_draws as f64)),
        ("conv_runs", Json::Num(conv_runs as f64)),
        ("all_within_tolerance", Json::Bool(all_within)),
        ("benches", Json::Arr(rows)),
    ]))
}
