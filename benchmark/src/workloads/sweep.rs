//! `paper-sweep`: the paper's evaluation path (Figs. 10/11/14) — four
//! PARSEC profiles × the eight racetrack variants through the full
//! hierarchy, with per-shift fault sampling by the analytic engine, on
//! one worker. Caches start empty in every cell, as in `repro`.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use super::{end_to_end, llc_metrics, ns_per, timed, timed_reps, timed_setup, Ctx, Rep};
use crate::replay::{replay_llc, LlcLayers, LlcSpec, RecordingLlc};
use crate::report::Report;
use crate::stats::{ratio, Digest};
use rtm_core::experiments::{RtVariant, SimSweep, SweepSettings};
use rtm_mem::hierarchy::{Hierarchy, LlcChoice};
use rtm_model::Engine;
use rtm_trace::TraceGenerator;
use rtm_track::fault::FaultModelChoice;
use rtm_util::rng::derive_seed;

/// Working sets from 1 MB (swaptions, LLC-light) to 100 MB random
/// (canneal, LLC-heavy), write fractions from 15 % to 40 %.
const PROFILES: [&str; 4] = ["canneal", "fluidanimate", "streamcluster", "swaptions"];

/// Accesses per (profile, variant) cell: ~3.5 s per rep on the reference
/// host. Long enough that faulting in each cell's fresh LLC directory is
/// a minor share of the cell (at 125k it is about a third).
const ACCESSES: u64 = 500_000;

const QUICK_ACCESSES: u64 = 4_000;

fn settings(ctx: &Ctx) -> SweepSettings {
    let profiles = if ctx.quick {
        vec![PROFILES[0], PROFILES[3]]
    } else {
        PROFILES.to_vec()
    };
    SweepSettings {
        accesses: if ctx.quick { QUICK_ACCESSES } else { ACCESSES },
        seed: ctx.seed,
        workloads: Some(profiles),
        sample_engine: Some(Engine::Analytic),
        fault_model: FaultModelChoice::Engine,
    }
}

fn sweep(settings: &SweepSettings, threads: usize) -> SimSweep {
    SimSweep::run_variants_with_threads(settings, &RtVariant::ALL, threads)
}

fn digest(s: &SimSweep) -> u64 {
    let mut d = Digest::default();
    for r in s.by_variant.values().flat_map(|per| per.values()) {
        for v in [
            r.cycles,
            r.shift_cycles,
            r.l1_misses,
            r.l2_misses,
            r.dram_accesses,
            r.llc.sampled_shifts,
            r.llc.observed_errors,
        ] {
            d.add(v);
        }
        d.add_f64(r.llc.expected_dues);
        d.add_f64(r.llc.expected_sdcs);
    }
    d.value()
}

fn record_model(report: &mut Report, s: &SimSweep) {
    let cells = || s.by_variant.values().flat_map(|per| per.values());
    report.digest = digest(s);
    report.model = vec![
        ("cycles", cells().map(|r| r.cycles).sum::<u64>() as f64),
        (
            "shift_cycles",
            cells().map(|r| r.shift_cycles).sum::<u64>() as f64,
        ),
        (
            "sampled_errors",
            cells().map(|r| r.llc.observed_errors).sum::<u64>() as f64,
        ),
    ];
}

fn accesses(s: &SweepSettings) -> u64 {
    s.profiles().len() as u64 * RtVariant::ALL.len() as u64 * s.accesses
}

/// End-to-end run. Set-up builds the settings and one hierarchy per
/// variant (the construction every cell repeats).
pub fn measure(ctx: &Ctx, report: &mut Report) {
    let (setup, settings) = timed_setup(|| {
        let s = settings(ctx);
        for v in RtVariant::ALL {
            let (kind, policy) = v.parts();
            black_box(Hierarchy::with_racetrack_faults(
                kind,
                policy,
                s.fault_model,
                Engine::Analytic,
                s.seed,
            ));
        }
        s
    });
    let ops = accesses(&settings);
    let mut last = SimSweep::default();
    let reps = timed_reps(ctx.seconds, || {
        last = sweep(&settings, 1);
        Rep {
            ops,
            digest: digest(&last),
        }
    });
    end_to_end(report, setup, &reps);
    report.checks.check(
        "sweep digest at nproc workers equals 1 worker",
        digest(&sweep(&settings, ctx.nproc)) == report.digest,
    );
    record_model(report, &last);
}

/// The per-profile trace stream `SimSweep` derives from the sweep seed.
/// The traced replica must draw the very same traces; the
/// replica-equals-sweep check fails if this ever drifts.
fn seed_of(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64))
}

/// Per-layer run: the sweep once on `nproc` workers (which also warms
/// the allocator), once plain, once with the global metrics registry
/// on; then every cell rebuilt from public parts with a recording LLC,
/// checked against the sweep, and its LLC calls replayed layer by layer.
pub fn trace(ctx: &Ctx, report: &mut Report) {
    let settings = settings(ctx);
    let (par_s, par) = timed(|| sweep(&settings, ctx.nproc));
    let (plain_s, plain) = timed(|| sweep(&settings, 1));
    let registry = rtm_obs::global().registry();
    registry.set_enabled(true);
    let (registry_s, observed) = timed(|| sweep(&settings, 1));
    registry.set_enabled(false);
    registry.reset();
    report.checks.check(
        "global registry leaves the sweep unchanged",
        digest(&observed) == digest(&plain),
    );
    report.checks.check(
        "sweep digest at nproc workers equals 1 worker",
        digest(&par) == digest(&plain),
    );

    let mut layers = LlcLayers::default();
    let (mut gen_s, mut run_s) = (0.0, 0.0);
    let (mut total, mut l1_misses, mut l2_misses) = (0u64, 0u64, 0u64);
    let mut replicas_match = true;
    let cells = settings
        .profiles()
        .into_iter()
        .flat_map(|p| RtVariant::ALL.map(|v| (p, v)));
    for (i, (p, v)) in cells.enumerate() {
        let (s, trace) = timed(|| {
            TraceGenerator::new(p, derive_seed(settings.seed, seed_of(p.name)))
                .take_vec(settings.accesses as usize)
        });
        gen_s += s;
        let (kind, policy) = v.parts();
        let spec = LlcSpec {
            kind,
            policy,
            banks: 1,
            fault_seed: Some(derive_seed(settings.seed, 0x5EED_0000 + i as u64)),
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut hier = Hierarchy::with_llc(
            Box::new(RecordingLlc::new(spec.build(), log.clone())),
            LlcChoice::RacetrackUnprotected,
        );
        let (s, r) = timed(|| hier.run_trace(&trace));
        run_s += s;
        replicas_match &= plain.by_variant[p.name][v.label()] == r;
        layers.add(&replay_llc(&spec, &log.borrow(), &mut report.checks));
        total += r.accesses;
        l1_misses += r.l1_misses;
        l2_misses += r.l2_misses;
    }
    report
        .checks
        .check("rebuilt cells reproduce the sweep exactly", replicas_match);

    report.set("trace.gen_ns_per_access", ns_per(gen_s, total));
    report.set(
        "mem.hier_self_ns_per_access",
        ns_per(run_s - layers.llc_s, total),
    );
    report.set("mem.l1_miss_ratio", ratio(l1_misses as f64, total as f64));
    report.set(
        "mem.l2_miss_ratio",
        ratio(l2_misses as f64, l1_misses as f64),
    );
    llc_metrics(report, &layers);
    report.set("obs.registry_overhead_ratio", registry_s / plain_s);
    report.set("par.sweep_speedup", plain_s / par_s);
    report.set("traced.overhead_ratio", (gen_s + run_s) / plain_s);
    record_model(report, &plain);
}
