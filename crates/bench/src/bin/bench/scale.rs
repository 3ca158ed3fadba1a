//! GB-scale memory-footprint benchmark: drives the mixed-tenant
//! generator against 1 GB → 16 GB *configured* racetrack arrays and
//! reports what that actually costs the host — materialised-group
//! fraction, arena bytes, bytes per configured stripe, and peak RSS
//! (from `/proc/self/status`, std-only). Lazy materialisation makes
//! untouched state cost (near) zero bytes, so the 16 GB row completes
//! inside an ordinary CI container.
//!
//! A second section exercises the bit-level [`PhysicalCache`]: the
//! arena-backed lazy path against a `materialise_all` eager run of the
//! same trace (bit-identity is a gate), plus a `reset` + rerun
//! demonstrating free-list slot reuse.
//!
//! Wall times and RSS figures are measurements (skipped by `obs-tool
//! compare`); all other fields are deterministic model output and
//! gated in CI. Every failed gate is reported, not only the first.

use crate::Opts;
use rtm_mem::cache::AccessKind;
use rtm_mem::llc::RacetrackLlc;
use rtm_mem::physical::PhysicalCache;
use rtm_obs::json::Json;
use rtm_pecc::layout::ProtectionKind;
use rtm_serve::{SchedPolicy, ServeConfig, ServeSim};
use rtm_trace::mixed::TENANT_STRIDE;
use rtm_trace::{MixedTraceGenerator, WorkloadProfile};
use rtm_track::bit::Bit;
use rtm_track::fault::GaussianFaultModel;
use std::time::Instant;

/// Ceiling on mixed-trace tenants (the generator's schedule cap).
const MAX_TENANTS: usize = 128;

/// Peak-RSS ceiling of the whole run, in MiB.
const MAX_RSS_MB: f64 = 2048.0;

fn gib(n: u64) -> u64 {
    n << 30
}

/// Tenants that cover a configured capacity at one tenant window
/// ([`TENANT_STRIDE`]) each, clamped to the generator's cap.
fn tenants_for(capacity: u64) -> usize {
    ((capacity / TENANT_STRIDE).max(4) as usize).min(MAX_TENANTS)
}

/// Peak RSS in MiB so far (`None` off-Linux: the gate is skipped).
fn rss_mb() -> Option<f64> {
    rtm_util::sys::peak_rss_bytes().map(|b| b as f64 / (1 << 20) as f64)
}

/// One serve row: the scheduling simulator against a `capacity`-byte
/// configured LLC under a capacity-proportional multi-tenant mix.
/// Returns the row, the configured stripe count and the materialised
/// fraction.
fn serve_row(capacity: u64, requests: u64) -> (Json, u64, f64) {
    let profiles = WorkloadProfile::parsec();
    let tenants = tenants_for(capacity);
    let mix_profiles: Vec<WorkloadProfile> =
        (0..tenants).map(|i| profiles[i % profiles.len()]).collect();
    let mut mix = MixedTraceGenerator::new(&mix_profiles, 2015);
    let cfg = ServeConfig::new(SchedPolicy::ShiftAware)
        .with_capacity(capacity)
        .with_requests(requests);
    let start = Instant::now();
    let r = ServeSim::new(cfg).run(&mut mix);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let stripes = r.scale.configured_groups * u64::from(RacetrackLlc::STRIPES_PER_GROUP);
    let fraction = r.scale.materialised_groups as f64 / r.scale.configured_groups.max(1) as f64;
    let peak_rss = rtm_util::sys::peak_rss_bytes().unwrap_or(0);
    let row = Json::obj(vec![
        ("mode", Json::Str("serve".to_string())),
        // String-valued so each ladder row keeps a distinct identity
        // under `obs-tool compare` (identity = the string fields).
        ("capacity", Json::Str(format!("{}GiB", capacity >> 30))),
        ("tenants", Json::Num(tenants as f64)),
        ("requests", Json::Num(r.requests as f64)),
        ("cycles", Json::Num(r.cycles as f64)),
        (
            "configured_groups",
            Json::Num(r.scale.configured_groups as f64),
        ),
        (
            "materialised_groups",
            Json::Num(r.scale.materialised_groups as f64),
        ),
        ("materialised_fraction", Json::Num(fraction)),
        ("pristine_hits", Json::Num(r.scale.pristine_hits as f64)),
        ("arena_bytes", Json::Num(r.scale.arena_bytes as f64)),
        ("configured_stripes", Json::Num(stripes as f64)),
        (
            "state_bytes_per_stripe",
            Json::Num(r.scale.arena_bytes as f64 / stripes.max(1) as f64),
        ),
        // Measurements (obs-tool compare skips these): host cost.
        ("wall_ms", Json::Num(wall_ms)),
        ("peak_rss_bytes", Json::Num(peak_rss as f64)),
        (
            "peak_rss_bytes_per_stripe",
            Json::Num(peak_rss as f64 / stripes.max(1) as f64),
        ),
    ]);
    eprintln!(
        "serve {:>2} GiB: {tenants} tenants, {requests} requests: \
         {}/{} groups materialised ({:.4}%), {} pristine hits, \
         {} KiB arena, {:.1} ms, peak RSS {:.0} MiB",
        capacity >> 30,
        r.scale.materialised_groups,
        r.scale.configured_groups,
        fraction * 100.0,
        r.scale.pristine_hits,
        r.scale.arena_bytes >> 10,
        wall_ms,
        rss_mb().unwrap_or(0.0),
    );
    (row, stripes, fraction)
}

/// Deterministic synthetic address stream for the physical section:
/// a fixed-stride walk with a write every third access, confined to
/// 2048 of the 16384 lines (the cache is direct-mapped, so that is
/// 32 of the 256 groups) so directory sparsity is visible.
fn phys_drive(cache: &mut PhysicalCache, accesses: usize) -> (u64, Vec<Vec<Bit>>) {
    let lines = 2048;
    let mut reads = Vec::new();
    let mut hits = 0u64;
    for i in 0..accesses {
        let addr = ((i as u64).wrapping_mul(8191) % lines) * 64;
        if i % 3 == 2 {
            let bits = vec![if i % 6 == 2 { Bit::One } else { Bit::Zero }; 8];
            let (r, _) = cache.access(addr, AccessKind::Write, Some(&bits));
            hits += u64::from(r.hit);
        } else {
            let (r, data) = cache.access(addr, AccessKind::Read, None);
            hits += u64::from(r.hit);
            if let Some(d) = data {
                reads.push(d);
            }
        }
    }
    (hits, reads)
}

fn phys_cache() -> PhysicalCache {
    // 1 MiB / 16 Ki lines / 256 groups, direct-mapped (line index ==
    // set index, so the address walk controls group coverage and
    // head-aligned first reads stay pristine), 8 stripes per line,
    // SECDED, Gaussian (sampling) fault physics.
    PhysicalCache::new(
        1 << 20,
        1,
        ProtectionKind::SECDED,
        8,
        Box::new(GaussianFaultModel::new(
            &rtm_model::DeviceParams::table1(),
            0xBEEF,
        )),
    )
}

/// The physical row plus the lazy-vs-eager equivalence verdict.
fn physical_row(accesses: usize) -> (Json, bool) {
    let start = Instant::now();
    let mut lazy = phys_cache();
    let (lazy_hits, lazy_reads) = phys_drive(&mut lazy, accesses);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let lazy_bytes = lazy.approx_state_bytes();

    // Eager reference: identical trace on a fully materialised cache.
    // State bytes are compared after both ran the same trace.
    let mut eager = phys_cache();
    eager.materialise_all();
    let (eager_hits, eager_reads) = phys_drive(&mut eager, accesses);
    let eager_bytes = eager.approx_state_bytes();
    let identical = lazy_hits == eager_hits
        && lazy_reads == eager_reads
        && lazy.shift_steps() == eager.shift_steps()
        && lazy.dues() == eager.dues();

    // Reset and replay: the arena must serve the rerun from its free
    // list without growing.
    let slots_before = lazy.arena_slots();
    let materialised_first = lazy.materialised_groups();
    lazy.reset();
    let rerun_start = Instant::now();
    phys_drive(&mut lazy, accesses);
    let rerun_ms = rerun_start.elapsed().as_secs_f64() * 1e3;
    let reused = lazy.arena_slots() == slots_before;

    let row = Json::obj(vec![
        ("mode", Json::Str("physical".to_string())),
        ("accesses", Json::Num(accesses as f64)),
        (
            "configured_groups",
            Json::Num(lazy.configured_groups() as f64),
        ),
        ("materialised_groups", Json::Num(materialised_first as f64)),
        ("pristine_reads", Json::Num(lazy.pristine_reads() as f64)),
        ("shift_steps", Json::Num(lazy.shift_steps() as f64)),
        ("dues", Json::Num(lazy.dues() as f64)),
        ("lazy_state_bytes", Json::Num(lazy_bytes as f64)),
        ("eager_state_bytes", Json::Num(eager_bytes as f64)),
        ("lazy_matches_eager", Json::Bool(identical)),
        ("arena_slots_reused", Json::Bool(reused)),
        ("wall_ms", Json::Num(wall_ms)),
        ("rerun_wall_ms", Json::Num(rerun_ms)),
    ]);
    eprintln!(
        "physical: {accesses} bit-level accesses: {}/{} groups materialised, \
         {} pristine reads, lazy {} KiB vs eager {} KiB, \
         lazy==eager: {identical}, slots reused after reset: {reused}",
        materialised_first,
        lazy.configured_groups(),
        lazy.pristine_reads(),
        lazy_bytes >> 10,
        eager_bytes >> 10,
    );
    (row, identical && reused)
}

pub(crate) fn run(opts: &Opts) -> Result<Json, String> {
    let quick = opts.quick;
    // Capacity ladder: rows run sequentially (smallest first) so the
    // process-wide VmHWM peak is attributable to the largest row.
    let capacities: Vec<u64> = if quick {
        vec![gib(1), gib(16)]
    } else {
        vec![gib(1), gib(4), gib(16)]
    };
    let requests: u64 = if quick { 30_000 } else { 120_000 };
    let phys_accesses: usize = if quick { 20_000 } else { 60_000 };

    eprintln!(
        "scale ladder: {:?} GiB configured, {requests} requests per row...",
        capacities.iter().map(|c| c >> 30).collect::<Vec<_>>()
    );
    let mut rows: Vec<Json> = Vec::new();
    let mut biggest_stripes = 0u64;
    let mut biggest_fraction = 0.0f64;
    for &cap in &capacities {
        let (row, stripes, fraction) = serve_row(cap, requests);
        if stripes > biggest_stripes {
            biggest_stripes = stripes;
            biggest_fraction = fraction;
        }
        rows.push(row);
    }

    let (phys, phys_ok) = physical_row(phys_accesses);
    rows.push(phys);

    let peak = rss_mb();
    if let Some(mb) = peak {
        eprintln!("peak RSS: {mb:.0} MiB (ceiling {MAX_RSS_MB:.0} MiB)");
    } else {
        eprintln!("peak RSS: unavailable on this platform (gate skipped)");
    }

    let mut failed: Vec<String> = Vec::new();
    if biggest_stripes < 1_000_000 {
        failed.push(format!(
            "SCALE REGRESSION: largest configured array spans only \
             {biggest_stripes} stripes (< 1M)"
        ));
    }
    if biggest_fraction >= 0.05 {
        // The touched working set must stay a sliver of the
        // directory on the largest configuration — otherwise the
        // lazy path is materialising groups it should not.
        failed.push(format!(
            "SCALE REGRESSION: {:.2}% of the largest configured array \
             materialised (sparsity gate: < 5%)",
            biggest_fraction * 100.0
        ));
    }
    if !phys_ok {
        failed.push(
            "EQUIVALENCE REGRESSION: lazy physical cache diverged from \
             the eager reference (or the arena grew across reset)"
                .to_string(),
        );
    }
    if let Some(mb) = peak.filter(|&mb| mb > MAX_RSS_MB) {
        failed.push(format!(
            "MEMORY REGRESSION: peak RSS {mb:.0} MiB exceeds the \
             {MAX_RSS_MB:.0} MiB ceiling"
        ));
    }
    if !failed.is_empty() {
        return Err(failed.join("\n"));
    }
    eprintln!(
        "scale gates: >=1M stripes, <5% materialised, lazy==eager, \
         arena reuse, RSS ceiling: all passed"
    );

    Ok(Json::obj(vec![
        ("schema", Json::Str("rtm-bench-scale/v1".to_string())),
        ("quick", Json::Bool(quick)),
        ("requests_per_row", Json::Num(requests as f64)),
        ("max_rss_mb", Json::Num(MAX_RSS_MB)),
        ("rows", Json::Arr(rows)),
    ]))
}
