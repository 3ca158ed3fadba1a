//! The four workloads and the timing loop they share.
//!
//! Every workload has an untraced `measure` (the end-to-end metrics) and
//! a `trace` run (the per-layer metrics). Inputs derive from the
//! workload's seed only; see `README.md` for why each workload exists.

pub mod front;
pub mod physical;
pub mod serve;
pub mod sweep;

use std::time::Instant;

use crate::replay::LlcLayers;
use crate::report::Report;
use crate::stats::{ratio, upper_half_median};

/// Workload names, in run order.
pub const NAMES: [&str; 4] = [
    "paper-sweep",
    "serve-saturated",
    "frontdoor-10k",
    "physical-rw",
];

/// Timed reps per run at least, so every run has a median and the
/// digest-across-reps check compares something.
const MIN_REPS: usize = 3;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The workload's seed, derived from `--seed` and the workload.
    pub seed: u64,
    /// Host seconds the timed reps may span.
    pub seconds: f64,
    /// Tiny inputs (tests).
    pub quick: bool,
    /// Worker threads of the parallel paths (`nproc`).
    pub nproc: usize,
}

/// Runs workload `index` of [`NAMES`]: the per-layer run when `traced`,
/// otherwise the end-to-end one. `seed` is the `--seed` value.
pub fn run(index: usize, seed: u64, seconds: f64, quick: bool, traced: bool) -> Report {
    let ctx = Ctx {
        seed: rtm_util::rng::derive_seed(seed, index as u64 + 1),
        seconds: if quick { 0.0 } else { seconds },
        quick,
        nproc: rtm_par::available_parallelism(),
    };
    let mut report = Report::new(NAMES[index], seed);
    let (measure, trace) = RUNS[index];
    if traced {
        trace(&ctx, &mut report);
    } else {
        measure(&ctx, &mut report);
    }
    report
}

type Run = fn(&Ctx, &mut Report);

/// Each workload's (untraced, traced) run, in [`NAMES`] order.
const RUNS: [(Run, Run); 4] = [
    (sweep::measure, sweep::trace),
    (serve::measure, serve::trace),
    (front::measure, front::trace),
    (physical::measure, physical::trace),
];

/// What one timed rep did: operations completed and the digest of its
/// model outputs.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Operations (accesses or requests).
    pub ops: u64,
    /// Model-output digest.
    pub digest: u64,
}

/// Runs `setup` [`SETUP_REPS`] times; returns each duration and the
/// last product.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut product = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        product = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    (secs, product.expect("SETUP_REPS > 0"))
}

/// Times `rep` [`MIN_REPS`] times, then keeps going while one more rep
/// as long as the last still ends within `seconds` of the first start.
pub fn timed_reps(seconds: f64, mut rep: impl FnMut() -> Rep) -> Vec<(f64, Rep)> {
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        let r = rep();
        let secs = t.elapsed().as_secs_f64();
        reps.push((secs, r));
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() + secs > seconds {
            return reps;
        }
    }
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let v = f();
    (start.elapsed().as_secs_f64(), v)
}

/// Times two calls and keeps the faster time (the first call also warms
/// the allocator, as the reps of an untraced run are warm) and the
/// second call's output.
pub fn timed_warm<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let (first, _) = timed(&mut f);
    let (second, v) = timed(f);
    (first.min(second), v)
}

/// Records the end-to-end metrics — `ops_per_s` (median of the faster
/// half of the reps), `setup_s` (median over set-ups), `peak_rss_mb`
/// (now, so call before any extra verification run) — and checks that
/// every rep produced the same model digest.
pub fn end_to_end(report: &mut Report, setup: Vec<f64>, reps: &[(f64, Rep)]) {
    let rates: Vec<f64> = reps.iter().map(|(s, r)| r.ops as f64 / s).collect();
    report.set_stat(
        "ops_per_s",
        "upper-half median",
        upper_half_median(&rates),
        rates,
    );
    report.set_median("setup_s", setup);
    let rss = rtm_util::sys::peak_rss_bytes().unwrap_or(0);
    report.set("peak_rss_mb", rss as f64 / 1e6);
    report.digest = reps[0].1.digest;
    report.checks.check(
        "model digest identical in every rep",
        reps.iter().all(|(_, r)| r.digest == report.digest),
    );
}

/// Nanoseconds per item.
pub fn ns_per(secs: f64, items: u64) -> f64 {
    ratio(secs * 1e9, items as f64)
}

/// Records the `llc.*`, `cache.*`, `ctl.*` and `fault.*` metrics of
/// replayed LLC logs.
pub fn llc_metrics(report: &mut Report, l: &LlcLayers) {
    let calls = l.calls as f64;
    report.set("llc.calls", calls);
    report.set("llc.ns_per_call", ns_per(l.llc_s, l.calls));
    report.set(
        "llc.self_ns_per_call",
        ns_per(l.llc_s - l.cache_s - l.ctl_s - l.fault_s, l.calls),
    );
    report.set("llc.hit_ratio", ratio(l.hits as f64, calls));
    report.set("llc.zero_shift_ratio", ratio(l.zero_shift as f64, calls));
    report.set("cache.ns_per_access", ns_per(l.cache_s, l.calls));
    report.set("ctl.plans", l.plans as f64);
    report.set("ctl.ns_per_plan", ns_per(l.ctl_s, l.plans));
    report.set(
        "ctl.subshifts_per_plan",
        ratio(l.subshifts as f64, l.plans as f64),
    );
    report.set("ctl.shift_cycles", l.shift_cycles as f64);
    if l.samples > 0 {
        report.set("fault.samples", l.samples as f64);
        report.set("fault.ns_per_sample", ns_per(l.fault_s, l.samples));
        report.set(
            "fault.error_ratio",
            ratio(l.errors as f64, l.samples as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_run_at_least_the_minimum_and_stop_at_the_deadline() {
        let mut n = 0u64;
        let reps = timed_reps(0.0, || {
            n += 1;
            Rep { ops: n, digest: 7 }
        });
        assert_eq!(reps.len(), MIN_REPS);
        let reps = timed_reps(0.05, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Rep { ops: 1, digest: 7 }
        });
        assert!(reps.len() > MIN_REPS && reps.len() <= 12, "{}", reps.len());
    }

    #[test]
    fn end_to_end_flags_a_changing_digest() {
        let mut report = Report::new("w", 1);
        let reps = [
            (1.0, Rep { ops: 10, digest: 1 }),
            (2.0, Rep { ops: 10, digest: 2 }),
        ];
        end_to_end(&mut report, vec![0.1], &reps);
        assert_eq!(report.value("ops_per_s"), Some(10.0));
        assert_eq!(report.checks.failed.len(), 1);
    }
}
