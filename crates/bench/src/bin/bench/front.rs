//! Front-door benchmark: multi-tenant admission control over the
//! serving simulator at a 1k → 10k tenant ladder. One row per
//! (tenants, policy, class) plus a per-(tenants, policy) summary row,
//! behind three gates:
//!
//! * **determinism** — the whole ladder reruns on one worker and every
//!   [`FrontResult`] must be bit-identical to the `--threads` run;
//! * **wire equivalence** — the smallest ladder row is recorded as a
//!   frame stream, pushed through an in-memory [`Loopback`] transport
//!   and replayed by the wire server path, which must reproduce the
//!   in-process run exactly;
//! * **sanity** — per row `admitted + shed == offered`,
//!   `completed == admitted` and a finite fairness ratio; across the
//!   ladder the admission control must actually bite (some requests
//!   shed, some deferred) and the ladder must reach ≥ 10k tenants.

use crate::{run_grid, Opts};
use rtm_core::experiments::frontdoor::FrontSettings;
use rtm_front::{run_front, FrontResult, Loopback};
use rtm_obs::json::Json;
use rtm_serve::SchedPolicy;

/// Tenant-count ladder; the top row carries the paper-scale claim.
const LADDER: [u32; 2] = [1_000, 10_000];

/// One ladder cell: tenants, policy, wall ms and the run.
type Cell = (u32, SchedPolicy, f64, FrontResult);

fn settings_for(tenants: u32, quick: bool) -> FrontSettings {
    let mut s = FrontSettings::for_tenants(tenants, quick);
    if quick && tenants <= 1_000 {
        // Keep the small row at full per-tenant load even in quick
        // mode: it is cheap, and it is the row where admission
        // control visibly sheds (the sanity gate checks that).
        s = FrontSettings::for_tenants(tenants, false);
    }
    s
}

fn run_ladder(quick: bool, threads: usize) -> Vec<Cell> {
    run_grid(&LADDER, &SchedPolicy::ALL, threads, |tenants, policy| {
        run_front(&settings_for(tenants, quick).config(), policy)
    })
}

/// Records the smallest ladder row as a frame stream, pushes it
/// through the in-memory loopback transport and the wire server path,
/// and checks the replay against the in-process run.
fn check_wire_equivalence(quick: bool) -> Result<(), String> {
    let cfg = settings_for(LADDER[0], quick).config();
    let policy = SchedPolicy::ShiftAware;
    let mut channel = Loopback::new();
    rtm_front::proto::write_frames(&mut channel, &rtm_front::record_frames(&cfg))
        .expect("loopback write cannot fail");
    let frames = rtm_front::proto::read_frames(&mut channel).expect("loopback read cannot fail");
    let (replayed, _) = rtm_front::serve_frames(&frames, policy)
        .map_err(|e| format!("WIRE REGRESSION: recorded stream rejected: {e}"))?;
    let internal = run_front(&cfg, policy);
    if replayed.classes != internal.classes || replayed.serve != internal.serve {
        return Err(format!(
            "WIRE REGRESSION: loopback replay diverges from the in-process \
             run at {} tenants",
            LADDER[0]
        ));
    }
    eprintln!(
        "wire check: loopback replay identical to the in-process run \
         ({} tenants, {})",
        LADDER[0],
        policy.label()
    );
    Ok(())
}

fn check_sanity(cells: &[Cell], quick: bool) -> Result<(), String> {
    let mut shed = 0u64;
    let mut deferred = 0u64;
    for (tenants, policy, _, r) in cells {
        let offered = settings_for(*tenants, quick).offered;
        if r.admitted() + r.shed() != offered || r.completed() != r.admitted() {
            return Err(format!(
                "SANITY REGRESSION: {tenants} tenants / {policy}: admitted {} + shed {} \
                 vs offered {offered}, completed {}",
                r.admitted(),
                r.shed(),
                r.completed()
            ));
        }
        let fairness = r.fairness_ratio();
        if !(fairness >= 1.0 && fairness.is_finite()) {
            return Err(format!(
                "SANITY REGRESSION: {tenants} tenants / {policy}: fairness ratio {fairness} \
                 (some class starved outright)"
            ));
        }
        shed += r.shed();
        deferred += r.deferred();
    }
    if shed == 0 || deferred == 0 {
        return Err(format!(
            "SANITY REGRESSION: admission control never bit across the ladder \
             ({shed} shed, {deferred} deferrals) — offered load too low to gate"
        ));
    }
    if !LADDER.iter().any(|&t| t >= 10_000) {
        return Err("SANITY REGRESSION: ladder never reaches 10k tenants".to_string());
    }
    eprintln!(
        "sanity check: conservation, fairness and scale hold \
         ({shed} shed, {deferred} deferrals across the ladder)"
    );
    Ok(())
}

pub(crate) fn run(opts: &Opts) -> Result<Json, String> {
    let (quick, threads) = (opts.quick, opts.threads);
    eprintln!(
        "front-door ladder: {LADDER:?} tenants x {} policies ({threads} threads, quick={quick})...",
        SchedPolicy::ALL.len()
    );
    let cells = run_ladder(quick, threads);
    for (tenants, policy, wall_ms, r) in &cells {
        eprintln!(
            "{tenants} tenants / {policy}: {} admitted, {} shed, {} deferrals, \
             fairness {:.2}, {wall_ms:.0} ms",
            r.admitted(),
            r.shed(),
            r.deferred(),
            r.fairness_ratio(),
        );
    }

    eprintln!("determinism check: rerunning the ladder on 1 worker...");
    let base = run_ladder(quick, 1);
    let diverged: Vec<String> = cells
        .iter()
        .zip(&base)
        .filter(|(a, b)| a.3 != b.3)
        .map(|((tenants, policy, ..), _)| format!("{tenants}t/{policy}"))
        .collect();
    if !diverged.is_empty() {
        return Err(format!(
            "DETERMINISM REGRESSION: {threads}-thread results differ from \
             1-thread baseline on: {}",
            diverged.join(", ")
        ));
    }
    eprintln!("determinism check: {threads}-thread results identical to 1-thread baseline");
    check_wire_equivalence(quick)?;
    check_sanity(&cells, quick)?;

    let mut rows: Vec<Json> = Vec::new();
    for (tenants, policy, wall_ms, r) in &cells {
        for s in &r.classes {
            rows.push(Json::obj(vec![
                ("tenants", Json::Str(tenants.to_string())),
                ("policy", Json::Str(policy.label().to_string())),
                ("class", Json::Str(s.class.label().to_string())),
                ("class_tenants", Json::Num(s.tenants as f64)),
                ("admitted", Json::Num(s.admitted as f64)),
                ("shed", Json::Num(s.shed as f64)),
                ("deferred", Json::Num(s.deferred as f64)),
                ("completed", Json::Num(s.completed as f64)),
                ("total_p50", Json::Num(s.latency.p50 as f64)),
                ("total_p95", Json::Num(s.latency.p95 as f64)),
                ("total_p99", Json::Num(s.latency.p99 as f64)),
            ]));
        }
        rows.push(Json::obj(vec![
            ("tenants", Json::Str(tenants.to_string())),
            ("policy", Json::Str(policy.label().to_string())),
            ("admitted", Json::Num(r.admitted() as f64)),
            ("shed", Json::Num(r.shed() as f64)),
            ("deferred", Json::Num(r.deferred() as f64)),
            ("completed", Json::Num(r.completed() as f64)),
            ("cycles", Json::Num(r.serve.cycles as f64)),
            ("fairness_ratio", Json::Num(r.fairness_ratio())),
            (
                "throughput_req_per_kcycle",
                Json::Num(r.serve.throughput_req_per_kcycle()),
            ),
            ("wall_ms", Json::Num(*wall_ms)),
            (
                "throughput_req_per_sec",
                Json::Num(r.completed() as f64 / (wall_ms / 1e3)),
            ),
        ]));
    }
    Ok(Json::obj(vec![
        ("schema", Json::Str("rtm-bench-front/v1".to_string())),
        ("threads", Json::Num(threads as f64)),
        ("quick", Json::Bool(quick)),
        (
            "ladder",
            Json::Arr(LADDER.iter().map(|&t| Json::Num(t as f64)).collect()),
        ),
        ("rows", Json::Arr(rows)),
    ]))
}
