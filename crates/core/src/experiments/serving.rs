//! Serving-layer experiment: scheduling policy × workload × protection
//! scheme.
//!
//! The paper evaluates the LLC one request at a time; the `rtm-serve`
//! subsystem lifts that assumption. This driver quantifies what request
//! scheduling buys on top of each protection scheme: every cell runs a
//! four-tenant set-aliased mix of one PARSEC workload (the contended
//! multi-programmed traffic where stripe-group queues actually form)
//! through [`rtm_serve::ServeSim`] under one [`SchedPolicy`], and the
//! report compares FCFS, FR-FCFS and shift-aware on throughput,
//! realised shift work and the latency distribution.
//!
//! Cells are independent simulations fanned out over the `rtm-par`
//! pool; per-cell seeds derive from the workload name alone and each
//! result is folded into the sweep in strict grid order as it streams
//! back, so the sweep is bit-identical for any `--threads` setting.

use super::{render_table, RtVariant};
use rtm_obs::attrib::AttributionTable;
use rtm_serve::{SchedPolicy, ServeConfig, ServeResult, ServeSim, ATTRIBUTION_COMPONENTS};
use rtm_trace::{MixedTraceGenerator, WorkloadProfile};

/// Tenants in every cell's workload mix (set-aliased copies of the
/// cell's profile, so conflict misses create same-group queueing).
pub const TENANTS: usize = 4;

/// The racetrack variants the serving comparison runs under, each with
/// the label its rows print: the paper's four plus the two
/// deletion/insertion stream codecs.
pub const VARIANTS: [(&str, RtVariant); 6] = [
    ("unprotected", RtVariant::Baseline),
    ("p-ECC-O", RtVariant::SecdedO),
    ("p-ECC-S worst", RtVariant::SecdedSafeWorst),
    ("p-ECC-S adaptive", RtVariant::SecdedSafeAdaptive),
    ("Chee-Kiah", RtVariant::CheeKiah),
    ("Vahid 2-DI", RtVariant::Vahid2di),
];

/// Serving-sweep parameters.
#[derive(Debug, Clone)]
pub struct ServeSettings {
    /// Requests served per cell.
    pub requests: u64,
    /// RNG seed base (per-workload seeds derive from it).
    pub seed: u64,
    /// Workload subset (`None` = all twelve).
    pub workloads: Option<Vec<&'static str>>,
}

impl ServeSettings {
    /// Full-fidelity settings for the repro binaries.
    pub fn full() -> Self {
        Self {
            requests: 60_000,
            seed: 2015,
            workloads: None,
        }
    }

    /// Small settings for unit tests and `--quick` runs.
    pub fn quick() -> Self {
        Self {
            requests: 8_000,
            seed: 2015,
            workloads: Some(vec!["canneal", "streamcluster", "swaptions"]),
        }
    }

    /// The workload profiles this sweep covers, in display order.
    pub fn profiles(&self) -> Vec<WorkloadProfile> {
        WorkloadProfile::select(self.workloads.as_deref())
    }
}

/// One cell of the serving sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCell {
    /// Workload whose four-tenant mix drove the cell.
    pub workload: &'static str,
    /// Protection-scheme label (see [`VARIANTS`]).
    pub scheme: &'static str,
    /// Scheduling policy under test.
    pub policy: SchedPolicy,
    /// Full serving statistics.
    pub result: ServeResult,
}

/// Results of the policy × workload × scheme sweep, in grid order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeSweep {
    /// One cell per (workload, scheme, policy), workloads outermost.
    pub cells: Vec<ServeCell>,
}

impl ServeSweep {
    /// Runs the sweep on the process-wide `rtm_par` pool.
    pub fn run(settings: &ServeSettings) -> Self {
        Self::run_with_threads(settings, rtm_par::threads())
    }

    /// [`Self::run`] with an explicit worker count; results are
    /// identical for any `threads` value.
    pub fn run_with_threads(settings: &ServeSettings, threads: usize) -> Self {
        let profiles = settings.profiles();
        let cells: Vec<(WorkloadProfile, usize, SchedPolicy)> = profiles
            .iter()
            .flat_map(|&p| {
                (0..VARIANTS.len())
                    .flat_map(move |s| SchedPolicy::ALL.into_iter().map(move |pol| (p, s, pol)))
            })
            .collect();
        let progress = rtm_obs::timer::Progress::new("sweep(serve)", cells.len() as u64, "cells");
        // Streaming fold: cells land in the sweep in strict grid order
        // as soon as their predecessors have arrived, without a second
        // results Vec alongside the grid.
        let sweep = rtm_par::parallel_fold_with(
            threads,
            cells.len(),
            |i| {
                let (p, s, pol) = cells[i];
                let r = run_cell(settings, p, s, pol);
                progress.tick(1);
                r
            },
            Self::default(),
            |sweep, i, result| {
                let (p, s, pol) = cells[i];
                sweep.cells.push(ServeCell {
                    workload: p.name,
                    scheme: VARIANTS[s].0,
                    policy: pol,
                    result,
                });
            },
        );
        progress.finish();
        sweep
    }

    /// The cell for a (workload, scheme, policy) triple.
    pub fn cell(&self, workload: &str, scheme: &str, policy: SchedPolicy) -> Option<&ServeCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.scheme == scheme && c.policy == policy)
    }
}

fn run_cell(
    settings: &ServeSettings,
    p: WorkloadProfile,
    scheme: usize,
    policy: SchedPolicy,
) -> ServeResult {
    let (protection, shift_policy) = VARIANTS[scheme].1.parts();
    let seed = rtm_util::rng::derive_seed(settings.seed, rtm_trace::seed_of(p.name));
    let mut mix = MixedTraceGenerator::new(&vec![p; TENANTS], seed);
    let cfg = ServeConfig::new(policy)
        .with_scheme(protection, shift_policy)
        .with_requests(settings.requests);
    ServeSim::new(cfg).run(&mut mix)
}

/// Shift-aware vs FCFS headline per (workload, scheme): relative
/// completion-time saving and realised-shift-cycle saving (positive =
/// shift-aware better).
pub fn policy_gains(sweep: &ServeSweep) -> Vec<(String, f64, f64)> {
    let mut out = Vec::new();
    for c in &sweep.cells {
        if c.policy != SchedPolicy::ShiftAware {
            continue;
        }
        let Some(base) = sweep.cell(c.workload, c.scheme, SchedPolicy::Fcfs) else {
            continue;
        };
        let cycles = 1.0 - c.result.cycles as f64 / base.result.cycles.max(1) as f64;
        let shifts =
            1.0 - c.result.llc.shift_cycles as f64 / base.result.llc.shift_cycles.max(1) as f64;
        out.push((format!("{} / {}", c.workload, c.scheme), cycles, shifts));
    }
    out
}

/// Renders the sweep as a text report: the per-cell table plus the
/// shift-aware vs FCFS summary.
pub fn render_serving(sweep: &ServeSweep) -> String {
    let mut rows = vec![vec![
        "workload".to_string(),
        "scheme".to_string(),
        "policy".to_string(),
        "cycles".to_string(),
        "req/kcycle".to_string(),
        "qd p99".to_string(),
        "svc p50".to_string(),
        "svc p99".to_string(),
        "total p99".to_string(),
        "shift cyc".to_string(),
        "zero-shift".to_string(),
        "stalls".to_string(),
    ]];
    for c in &sweep.cells {
        let r = &c.result;
        rows.push(vec![
            c.workload.to_string(),
            c.scheme.to_string(),
            c.policy.to_string(),
            r.cycles.to_string(),
            format!("{:.2}", r.throughput_req_per_kcycle()),
            r.queue_delay.p99.to_string(),
            r.service.p50.to_string(),
            r.service.p99.to_string(),
            r.total.p99.to_string(),
            r.llc.shift_cycles.to_string(),
            r.zero_shift_dispatches.to_string(),
            r.backpressure_stalls.to_string(),
        ]);
    }
    let mut out = String::from("Serving layer: policy x workload x protection scheme\n\n");
    out.push_str(&render_table(&rows));
    out.push_str(
        "\nShift-aware vs FCFS (positive = shift-aware better; reordering\n\
         trades a bounded amount of tail fairness for service throughput):\n",
    );
    for (label, cycles, shifts) in policy_gains(sweep) {
        out.push_str(&format!(
            "  {label}: completion {:+.2}%, realised shift cycles {:+.2}%\n",
            cycles * 100.0,
            shifts * 100.0
        ));
    }
    out
}

/// Per-cell cycle attribution for the whole sweep, in grid order:
/// every dispatched cycle of every cell lands in exactly one of the
/// [`ATTRIBUTION_COMPONENTS`] buckets, so each row's components sum to
/// its total exactly (the serve decomposition is exact, not modelled).
pub fn serving_attribution(sweep: &ServeSweep) -> AttributionTable {
    let mut table = AttributionTable::new(["workload", "scheme", "policy"], ATTRIBUTION_COMPONENTS);
    for c in &sweep.cells {
        table.push(
            [
                c.workload.to_string(),
                c.scheme.to_string(),
                c.policy.to_string(),
            ],
            c.result.attribution_components(),
            c.result.attributed_total(),
        );
    }
    table
}

/// Renders the attribution table as a text report.
pub fn render_serving_attribution(table: &AttributionTable) -> String {
    let mut out = String::from(
        "Cycle attribution per (workload, scheme, policy); components\n\
         partition the dispatched cycles exactly:\n\n",
    );
    out.push_str(&render_table(&table.rows()));
    out
}

/// Publishes one labeled sample set per cell into the process-wide
/// [`rtm_obs`] metric store (no-op unless it is enabled). Called after
/// the sweep so the emission order is the deterministic grid order
/// regardless of `--threads`.
pub fn record_serving_labels(sweep: &ServeSweep) {
    let labels = rtm_obs::global().registry();
    if !labels.enabled() {
        return;
    }
    for c in &sweep.cells {
        let policy = c.policy.to_string();
        let cell = [
            ("workload", c.workload),
            ("scheme", c.scheme),
            ("policy", policy.as_str()),
        ];
        let r = &c.result;
        labels.counter_add_with("serve.requests", &cell, r.requests);
        labels.counter_add_with("serve.cycles", &cell, r.cycles);
        labels.counter_add_with("serve.shift_cycles", &cell, r.llc.shift_cycles);
        labels.counter_add_with("serve.verify_cycles", &cell, r.llc.verify_cycles);
        labels.gauge_set_with(
            "serve.throughput_req_per_kcycle",
            &cell,
            r.throughput_req_per_kcycle(),
        );
        labels.observe_labeled("serve.total_p99", &cell, r.total.p99 as f64);
        for tcell in &r.tenants.cells {
            let tenant = tcell.keys[0].as_str();
            let who = [
                ("workload", c.workload),
                ("scheme", c.scheme),
                ("policy", policy.as_str()),
                ("tenant", tenant),
            ];
            labels.counter_add_with("serve.tenant_cycles", &who, tcell.total);
        }
        for (bank, &busy) in r.bank_busy_cycles.iter().enumerate() {
            let bank = bank.to_string();
            let who = [
                ("workload", c.workload),
                ("scheme", c.scheme),
                ("policy", policy.as_str()),
                ("bank", bank.as_str()),
            ];
            labels.counter_add_with("serve.bank_busy_cycles", &who, busy);
        }
    }
}

/// Machine-readable CSV of the sweep (same columns as the table).
pub fn serving_csv(sweep: &ServeSweep) -> String {
    let mut rows = vec![vec![
        "workload".to_string(),
        "scheme".to_string(),
        "policy".to_string(),
        "cycles".to_string(),
        "throughput_req_per_kcycle".to_string(),
        "queue_delay_p99".to_string(),
        "service_p50".to_string(),
        "service_p99".to_string(),
        "total_p50".to_string(),
        "total_p99".to_string(),
        "read_total_p99".to_string(),
        "shift_cycles".to_string(),
        "zero_shift_dispatches".to_string(),
        "backpressure_stalls".to_string(),
    ]];
    for c in &sweep.cells {
        let r = &c.result;
        rows.push(vec![
            c.workload.to_string(),
            c.scheme.to_string(),
            c.policy.to_string(),
            r.cycles.to_string(),
            format!("{:.4}", r.throughput_req_per_kcycle()),
            r.queue_delay.p99.to_string(),
            r.service.p50.to_string(),
            r.service.p99.to_string(),
            r.total.p50.to_string(),
            r.total.p99.to_string(),
            r.read_total.p99.to_string(),
            r.llc.shift_cycles.to_string(),
            r.zero_shift_dispatches.to_string(),
            r.backpressure_stalls.to_string(),
        ]);
    }
    super::to_csv(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeSettings {
        ServeSettings {
            requests: 3_000,
            seed: 2015,
            workloads: Some(vec!["canneal", "streamcluster"]),
        }
    }

    #[test]
    fn sweep_covers_requested_matrix() {
        let sweep = ServeSweep::run(&tiny());
        assert_eq!(
            sweep.cells.len(),
            2 * VARIANTS.len() * SchedPolicy::ALL.len()
        );
        for c in &sweep.cells {
            assert_eq!(c.result.requests, 3_000);
        }
        assert!(sweep
            .cell("canneal", "p-ECC-S adaptive", SchedPolicy::ShiftAware)
            .is_some());
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let mut s = tiny();
        s.workloads = Some(vec!["canneal"]);
        let base = ServeSweep::run_with_threads(&s, 1);
        for threads in [2usize, 8] {
            let alt = ServeSweep::run_with_threads(&s, threads);
            assert_eq!(base, alt, "threads={threads}");
        }
    }

    #[test]
    fn shift_aware_gains_on_capacity_sensitive_mixes() {
        let mut s = tiny();
        s.requests = 8_000;
        let sweep = ServeSweep::run(&s);
        // On the capacity-sensitive mixes the shift-aware policy must
        // save both completion time and realised shift work vs FCFS
        // under the adaptive scheme (the paper's headline config).
        for w in ["canneal", "streamcluster"] {
            let fcfs = sweep
                .cell(w, "p-ECC-S adaptive", SchedPolicy::Fcfs)
                .unwrap();
            let aware = sweep
                .cell(w, "p-ECC-S adaptive", SchedPolicy::ShiftAware)
                .unwrap();
            assert!(
                aware.result.cycles < fcfs.result.cycles,
                "{w}: aware {} vs fcfs {}",
                aware.result.cycles,
                fcfs.result.cycles
            );
            assert!(
                aware.result.llc.shift_cycles < fcfs.result.llc.shift_cycles,
                "{w}"
            );
        }
    }

    #[test]
    fn render_and_csv_agree_on_cell_count() {
        let sweep = ServeSweep::run(&tiny());
        let text = render_serving(&sweep);
        assert!(text.contains("Serving layer"));
        assert!(text.contains("shift-aware"));
        let csv = serving_csv(&sweep);
        assert_eq!(csv.lines().count(), 1 + sweep.cells.len());
    }

    #[test]
    fn attribution_rows_sum_exactly_per_cell() {
        let sweep = ServeSweep::run(&tiny());
        let table = serving_attribution(&sweep);
        assert_eq!(table.cells.len(), sweep.cells.len());
        assert_eq!(table.max_residual(), 0);
        // Protected schemes verify; the unprotected one never does.
        for (cell, row) in sweep.cells.iter().zip(&table.cells) {
            let verify = table.component(row, "pecc_verify").unwrap();
            if cell.scheme == "unprotected" {
                assert_eq!(verify, 0, "{}", cell.workload);
            } else {
                assert!(verify > 0, "{} {}", cell.workload, cell.scheme);
            }
        }
        let text = render_serving_attribution(&table);
        assert!(text.contains("pecc_verify"));
        let csv = table.to_csv();
        assert_eq!(csv.lines().count(), 1 + table.cells.len());
    }

    #[test]
    fn attribution_is_thread_count_invariant() {
        let mut s = tiny();
        s.workloads = Some(vec!["streamcluster"]);
        let one = serving_attribution(&ServeSweep::run_with_threads(&s, 1));
        let eight = serving_attribution(&ServeSweep::run_with_threads(&s, 8));
        assert_eq!(one, eight);
        assert_eq!(one.to_csv(), eight.to_csv());
    }

    #[test]
    fn labeled_emission_covers_the_grid_when_enabled() {
        let mut s = tiny();
        s.workloads = Some(vec!["canneal"]);
        let sweep = ServeSweep::run(&s);
        let snap = super::super::record_into_global_store(|| record_serving_labels(&sweep));
        // The labeled dump, byte for byte; it carries the only labeled
        // histogram, `serve.total_p99`.
        let dump = snap.labeled_json().pretty();
        let digest = dump.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0x7c22_0eef_7570_5afd);
        assert_eq!(snap.series("serve.requests").len(), sweep.cells.len());
        let probe = sweep.cells[0].policy.to_string();
        assert_eq!(
            snap.get(
                "serve.requests",
                // Snapshot lookups take the pairs in sorted key order.
                &[
                    ("policy", probe.as_str()),
                    ("scheme", sweep.cells[0].scheme),
                    ("workload", "canneal"),
                ],
            ),
            Some(&rtm_obs::metrics::MetricValue::Counter(3_000))
        );
        // Tenant rows exist for each of the four tenants per cell.
        assert_eq!(
            snap.series("serve.tenant_cycles").len(),
            sweep.cells.len() * TENANTS
        );
    }
}
